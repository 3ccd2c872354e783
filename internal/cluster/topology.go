// Package cluster is tescd's coordinator tier: a thin routing layer
// that places each named graph on an owner node via rendezvous hashing,
// proxies mutations to the owner, and fans reads across the owner plus
// its replicas with health-gated member selection. The coordinator
// presents the exact single-node API — clients cannot tell a
// coordinator from a node — and does no graph computation of its own:
// per the specialized-path argument, the compute tier is the nodes.
//
// Owner replacement reuses the replication primitives verbatim: a
// durable replica that followed the owner is restarted without
// read-only mode on its own data directory, and a coordinator started
// with a topology naming it as the member's owner routes to it, since
// placement depends only on member names. See docs/CLUSTER.md.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Member is one cluster member: an owner node plus the read replicas
// that follow it (each typically a tescd running -follow against the
// owner).
type Member struct {
	Name string `json:"name"`
	// URL is the owner endpoint — the only endpoint mutations go to.
	URL string `json:"url"`
	// Replicas are read-eligible follower endpoints, consulted in order
	// when the owner cannot serve a read.
	Replicas []string `json:"replicas,omitempty"`
}

// Topology is the static cluster layout, either parsed from the -peers
// flag or loaded from a JSON file.
type Topology struct {
	Members []Member `json:"members"`
}

// Validate rejects topologies the coordinator cannot route on.
func (t Topology) Validate() error {
	if len(t.Members) == 0 {
		return fmt.Errorf("cluster: topology has no members")
	}
	seen := make(map[string]bool, len(t.Members))
	for _, m := range t.Members {
		if m.Name == "" {
			return fmt.Errorf("cluster: member with empty name")
		}
		if strings.ContainsAny(m.Name, "@. \t") {
			// Member names embed into job IDs ("job-3@0.node1") and the
			// placement hash; the separators must stay unambiguous.
			return fmt.Errorf("cluster: member name %q must not contain '@', '.', or spaces", m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("cluster: duplicate member name %q", m.Name)
		}
		seen[m.Name] = true
		if m.URL == "" {
			return fmt.Errorf("cluster: member %q has no owner URL", m.Name)
		}
	}
	return nil
}

// ParsePeers parses the -peers flag: comma-separated members, each
// "name=ownerURL" with optional "+replicaURL" suffixes:
//
//	-peers n1=http://h1:8537+http://h1r:8538,n2=http://h2:8537
func ParsePeers(spec string) (Topology, error) {
	var t Topology
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, urls, ok := strings.Cut(part, "=")
		if !ok {
			return t, fmt.Errorf("cluster: -peers entry %q: want name=url[+replica...]", part)
		}
		eps := strings.Split(urls, "+")
		m := Member{Name: name, URL: strings.TrimRight(eps[0], "/")}
		for _, r := range eps[1:] {
			if r = strings.TrimRight(strings.TrimSpace(r), "/"); r != "" {
				m.Replicas = append(m.Replicas, r)
			}
		}
		t.Members = append(t.Members, m)
	}
	return t, t.Validate()
}

// LoadTopology reads a topology from a JSON file:
//
//	{"members": [{"name": "n1", "url": "http://h1:8537",
//	              "replicas": ["http://h1r:8538"]}, ...]}
func LoadTopology(path string) (Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Topology{}, err
	}
	var t Topology
	if err := json.Unmarshal(data, &t); err != nil {
		return Topology{}, fmt.Errorf("cluster: parsing topology %s: %w", path, err)
	}
	for i := range t.Members {
		t.Members[i].URL = strings.TrimRight(t.Members[i].URL, "/")
		for j := range t.Members[i].Replicas {
			t.Members[i].Replicas[j] = strings.TrimRight(t.Members[i].Replicas[j], "/")
		}
	}
	return t, t.Validate()
}
