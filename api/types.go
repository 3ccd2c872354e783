// Package api is tescd's public wire contract: one Go struct per
// request/response shape, the unified error envelope, and the canonical
// route table the OpenAPI spec and the drift gate are generated from.
//
// Handlers (internal/server), the typed Go client (client), and the
// cluster coordinator (internal/cluster) all marshal through these
// types, so the documented API and the bytes on the wire cannot drift:
// a field exists here or it does not exist at all. docs/openapi.yaml is
// generated from this package by cmd/tescapi and CI fails when the
// committed spec and the registered routes disagree.
package api

import (
	"fmt"
	"net/url"
	"time"
)

// ---- graphs ---------------------------------------------------------

// RegisterGraphRequest is the body of POST /v1/graphs. Exactly one of
// EdgeList, Path and Snapshot must be set.
type RegisterGraphRequest struct {
	// Name is the registry key for all later queries. It must
	// round-trip URL escaping (see ValidateGraphName): the name becomes
	// a path segment on every later request, and in a cluster it is the
	// routing key a coordinator hashes and proxies on.
	Name string `json:"name"`
	// EdgeList is an inline whitespace edge list ("u v" per line,
	// optional "# nodes N" header) — the tesc.ReadGraph format.
	EdgeList string `json:"edge_list,omitempty"`
	// Path loads the edge list from a server-side file instead
	// (gzip-transparent).
	Path string `json:"path,omitempty"`
	// Snapshot imports a server-side .tescsnap file at admission time:
	// graph, event store, epoch stamps and any persisted vicinity
	// indexes land in one request, with zero index builds.
	Snapshot string `json:"snapshot,omitempty"`
}

// GraphInfo describes one registered graph; it is the response of graph
// registration, GET /v1/graphs/{name}, and (as a list) GET /v1/graphs.
type GraphInfo struct {
	Name   string `json:"name"`
	Nodes  int    `json:"nodes"`
	Edges  int64  `json:"edges"`
	Events int    `json:"events"`
	// Epoch is the graph's current mutation epoch; every mutation
	// (edge batch or event change) increments it by one.
	Epoch   uint64    `json:"epoch"`
	Created time.Time `json:"created"`
}

// ---- events ---------------------------------------------------------

// RegisterEventsRequest is the body of POST /v1/graphs/{name}/events.
type RegisterEventsRequest struct {
	// Events maps event names to occurrence node IDs to add.
	Events map[string][]int `json:"events,omitempty"`
	// Remove maps event names to occurrence node IDs to delete; an
	// empty list removes the whole event. Additions and removals in one
	// request form a single mutation (one epoch).
	Remove map[string][]int `json:"remove,omitempty"`
}

// RegisterEventsResponse reports the store after an event mutation.
type RegisterEventsResponse struct {
	Graph string `json:"graph"`
	// Events is the count of distinct events now registered.
	Events int    `json:"events"`
	Epoch  uint64 `json:"epoch"`
}

// ---- edges ----------------------------------------------------------

// MutateEdgesRequest is the body of POST /v1/graphs/{name}/edges.
type MutateEdgesRequest struct {
	// Insert and Delete list edge mutations as [u, v] pairs, applied in
	// order: insertions first, then deletions. No-ops (inserting a
	// present edge, deleting an absent one) are skipped and reported.
	Insert [][2]int `json:"insert,omitempty"`
	Delete [][2]int `json:"delete,omitempty"`
}

// MutateEdgesResponse reports an applied edge-mutation batch.
type MutateEdgesResponse struct {
	Graph    string `json:"graph"`
	Epoch    uint64 `json:"epoch"`
	Nodes    int    `json:"nodes"`
	Edges    int64  `json:"edges"`
	Inserted int    `json:"inserted"`
	Deleted  int    `json:"deleted"`
	// Skipped counts requested changes that were no-ops.
	Skipped int `json:"skipped"`
	// IndexesRefreshed counts the cached vicinity indexes migrated to
	// the new graph by incremental repair (not rebuilt);
	// NodesRecomputed the index entries repaired across them — the
	// observable locality of the update.
	IndexesRefreshed int `json:"indexes_refreshed"`
	NodesRecomputed  int `json:"nodes_recomputed"`
}

// ---- correlate ------------------------------------------------------

// CorrelateRequest is the body of POST /v1/graphs/{name}/correlate:
// one TESC significance test.
type CorrelateRequest struct {
	// A and B name registered events; alternatively NodesA/NodesB give
	// explicit occurrence lists for ad-hoc queries.
	A      string `json:"a,omitempty"`
	B      string `json:"b,omitempty"`
	NodesA []int  `json:"nodes_a,omitempty"`
	NodesB []int  `json:"nodes_b,omitempty"`

	// MinEpoch demands read-your-writes freshness: a server (typically
	// a lagging replica) whose graph has not reached this epoch answers
	// 503 stale_epoch with a Retry-After instead of silently serving
	// stale state.
	MinEpoch uint64 `json:"min_epoch,omitempty"`

	// The remaining fields mirror tesc.Options.
	H               int     `json:"h"`
	SampleSize      int     `json:"sample_size,omitempty"`
	Method          string  `json:"method,omitempty"`
	ImportanceBatch int     `json:"importance_batch,omitempty"`
	Tail            string  `json:"tail,omitempty"`
	Alpha           float64 `json:"alpha,omitempty"`
	Seed            uint64  `json:"seed,omitempty"`
	UseSpearman     bool    `json:"use_spearman,omitempty"`
}

// CorrelateResponse is one completed TESC test.
type CorrelateResponse struct {
	Tau         float64 `json:"tau"`
	Z           float64 `json:"z"`
	P           float64 `json:"p"`
	Significant bool    `json:"significant"`
	Verdict     string  `json:"verdict"`
	N           int     `json:"n"`
	Sampler     string  `json:"sampler"`
	Population  int     `json:"population"`
	SamplerBFS  int64   `json:"sampler_bfs"`
	DensityBFS  int64   `json:"density_bfs"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	// Epoch identifies the snapshot the whole query ran against: the
	// graph, the event occurrences and the vicinity index all belong to
	// this one version even if mutations landed mid-query.
	Epoch uint64 `json:"epoch"`
}

// ---- screening jobs -------------------------------------------------

// ScreenRequest is the body of POST /v1/graphs/{name}/screen: an
// asynchronous screening sweep, exhaustive or planned.
type ScreenRequest struct {
	// MinEpoch demands read-your-writes freshness, as on correlate.
	MinEpoch uint64 `json:"min_epoch,omitempty"`

	// The fields mirror tesc.ScreenOptions.
	H              int     `json:"h"`
	SampleSize     int     `json:"sample_size,omitempty"`
	Alpha          float64 `json:"alpha,omitempty"`
	Tail           string  `json:"tail,omitempty"`
	MinOccurrences int     `json:"min_occurrences,omitempty"`
	Bonferroni     bool    `json:"bonferroni,omitempty"`
	Workers        int     `json:"workers,omitempty"`
	Seed           uint64  `json:"seed,omitempty"`

	// TopK > 0 runs the planned top-k screen instead of the exhaustive
	// sweep; Theta runs the planned threshold screen (a pointer so
	// theta = 0 is expressible). Mutually exclusive, and both are
	// incompatible with Bonferroni — a planned screen never observes
	// the whole p-value family, so its results carry raw p-values.
	TopK       int      `json:"top_k,omitempty"`
	Theta      *float64 `json:"theta,omitempty"`
	BoundAlpha float64  `json:"bound_alpha,omitempty"`
}

// ScreenAccepted is the 202 response of POST /v1/graphs/{name}/screen.
type ScreenAccepted struct {
	// JobID polls at GET /v1/jobs/{id}. The ID is opaque: a cluster
	// coordinator returns IDs that embed the owning member, a single
	// node returns bare sequence numbers — clients must not parse it.
	JobID string `json:"job_id"`
}

// ScreenedPair is one screened pair in a result or partial ranking.
type ScreenedPair struct {
	A           string  `json:"a"`
	B           string  `json:"b"`
	OccA        int     `json:"occ_a"`
	OccB        int     `json:"occ_b"`
	Tau         float64 `json:"tau"`
	Z           float64 `json:"z"`
	P           float64 `json:"p"`
	AdjP        float64 `json:"adj_p"`
	Significant bool    `json:"significant"`
	Skipped     string  `json:"skipped,omitempty"`
}

// PlannerStats is the planned screen's work accounting. FullTests
// versus Candidates is the sweep work the planner saved: the exhaustive
// sweep pays a full test per candidate.
type PlannerStats struct {
	Candidates  int `json:"candidates"`
	FullTests   int `json:"full_tests"`
	PrunedEarly int `json:"pruned_early"`
	// PrunedPrior counts positive-tail pairs discarded before their
	// sample was drawn: their events' vicinities overlap too little for
	// τ to reach the bar.
	PrunedPrior  int   `json:"pruned_prior"`
	Checkpoints  int   `json:"checkpoints"`
	DensityEvals int64 `json:"density_evals"`
}

// ScreenResult is a completed screening run. Planner is set only for
// planned (top-k / threshold) jobs.
type ScreenResult struct {
	Pairs    []ScreenedPair `json:"pairs"`
	Tested   int            `json:"tested"`
	Skipped  int            `json:"skipped"`
	Rejected int            `json:"rejected"`
	BFSRuns  int64          `json:"bfs_runs"`
	MemoHits int64          `json:"density_memo_hits"`
	Planner  *PlannerStats  `json:"planner,omitempty"`
}

// JobStatus is the lifecycle state of an asynchronous screening job.
type JobStatus string

const (
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
	// JobCancelled marks a job abandoned before completion — by a
	// client's DELETE, a propagated deadline, or server drain. Planned
	// jobs keep their partial ranking visible in the view.
	JobCancelled JobStatus = "cancelled"
)

// JobView is an immutable snapshot of a job. Partial is the planner's
// current ranked result set, visible while a planned job is running
// (and kept on a cancelled one): pollers watch the ranking converge
// instead of staring at a counter.
type JobView struct {
	ID       string         `json:"id"`
	Graph    string         `json:"graph"`
	Status   JobStatus      `json:"status"`
	Done     int            `json:"done"`
	Total    int            `json:"total"`
	Error    string         `json:"error,omitempty"`
	Partial  []ScreenedPair `json:"partial,omitempty"`
	Result   *ScreenResult  `json:"result,omitempty"`
	Created  time.Time      `json:"created"`
	Finished *time.Time     `json:"finished,omitempty"`
}

// ---- monitors -------------------------------------------------------

// CreateMonitorRequest is the body of POST /v1/graphs/{name}/monitors.
type CreateMonitorRequest struct {
	// ID optionally names the monitor; the server generates one when
	// empty.
	ID string `json:"id,omitempty"`
	// A and B name the monitored (registered) event pair. Leave both
	// empty and set TopK instead to register a watchlist: a standing
	// top-k screen over the graph's whole event vocabulary, re-ranked
	// incrementally as mutations land.
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
	// TopK > 0 selects watchlist mode (mutually exclusive with A/B).
	TopK int `json:"top_k,omitempty"`
	// MinOccurrences filters watchlist candidates (default 1); fixed
	// pairs must leave it unset.
	MinOccurrences int `json:"min_occurrences,omitempty"`
	// The test parameters mirror the correlate request.
	H          int     `json:"h"`
	SampleSize int     `json:"sample_size,omitempty"`
	Alpha      float64 `json:"alpha,omitempty"`
	Tail       string  `json:"tail,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	// Policy selects re-evaluation: "auto" (default; debounced
	// re-screens as deltas land) or "manual" (accumulate invalidations,
	// re-screen only on POST .../refresh).
	Policy string `json:"policy,omitempty"`
	// DebounceMS is the auto-mode coalescing window in milliseconds
	// (default 250).
	DebounceMS int `json:"debounce_ms,omitempty"`
	// History bounds the per-monitor result ring (default 64).
	History int `json:"history,omitempty"`
}

// RankedPair is one entry of a watchlist sample's ranked list.
type RankedPair struct {
	A           string  `json:"a"`
	B           string  `json:"b"`
	Tau         float64 `json:"tau"`
	Z           float64 `json:"z"`
	P           float64 `json:"p"`
	Significant bool    `json:"significant"`
}

// MonitorSample is one (re-)screen of a standing query.
type MonitorSample struct {
	Epoch       uint64    `json:"epoch"`
	At          time.Time `json:"at"`
	Batches     int       `json:"batches"`
	Tau         float64   `json:"tau"`
	Z           float64   `json:"z"`
	P           float64   `json:"p"`
	Significant bool      `json:"significant"`
	Skipped     string    `json:"skipped,omitempty"`
	// Top is a watchlist sample's ranked list; the head fields above
	// mirror its first entry.
	Top        []RankedPair `json:"top,omitempty"`
	Reused     int64        `json:"nodes_reused"`
	Recomputed int64        `json:"nodes_recomputed"`
	ElapsedMS  float64      `json:"elapsed_ms"`
}

// MonitorView is one standing query's definition plus its most recent
// sample.
type MonitorView struct {
	ID    string `json:"id"`
	Graph string `json:"graph"`
	A     string `json:"a,omitempty"`
	B     string `json:"b,omitempty"`
	// TopK and MinOccurrences are set on watchlists only.
	TopK           int     `json:"top_k,omitempty"`
	MinOccurrences int     `json:"min_occurrences,omitempty"`
	H              int     `json:"h"`
	SampleSize     int     `json:"sample_size"`
	Alpha          float64 `json:"alpha"`
	Tail           string  `json:"tail"`
	Seed           uint64  `json:"seed"`
	Policy         string  `json:"policy"`
	DebounceMS     int64   `json:"debounce_ms"`
	HistoryCap     int     `json:"history_cap"`
	Pending        int     `json:"pending_batches"`
	// Last is the most recent (re-)screen, when one exists.
	Last *MonitorSample `json:"last,omitempty"`
}

// MonitorDetail adds the full history ring to the monitor view.
type MonitorDetail struct {
	MonitorView
	History []MonitorSample `json:"history"`
}

// MonitorRefreshResponse reports a synchronous refresh: Ran is false
// when nothing was pending and force was not set.
type MonitorRefreshResponse struct {
	Ran bool `json:"ran"`
	MonitorView
}

// ---- snapshots ------------------------------------------------------

// CheckpointInfo reports a synchronous checkpoint
// (POST /v1/graphs/{name}/snapshot).
type CheckpointInfo struct {
	Graph        string `json:"graph"`
	Path         string `json:"path"`
	Bytes        int64  `json:"bytes"`
	Epoch        uint64 `json:"epoch"`
	GraphVersion uint64 `json:"graph_version"`
	Events       int    `json:"events"`
	IndexLevels  []int  `json:"index_levels"`
	Monitors     int    `json:"monitors"`
}

// ---- replication ----------------------------------------------------

// LogCursor addresses a position in the primary's mutation WAL
// (segment index, byte offset).
type LogCursor struct {
	Seg uint64 `json:"seg"`
	Off int64  `json:"off"`
}

// ReplicaGraphStatus is one graph's position on a replication primary.
type ReplicaGraphStatus struct {
	Name         string `json:"name"`
	Epoch        uint64 `json:"epoch"`
	GraphVersion uint64 `json:"graph_version"`
	// Monitors fingerprints the graph's standing-query set (monitor
	// IDs, order-independent).
	Monitors uint64 `json:"monitors"`
}

// ReplicaStatus is the body of GET /v1/replica/status: the primary's
// replication summary.
type ReplicaStatus struct {
	Graphs []ReplicaGraphStatus `json:"graphs"`
	// Oldest is the first retained log position; a follower with no
	// cursor starts here. End is one past the last complete frame.
	Oldest LogCursor `json:"oldest"`
	End    LogCursor `json:"end"`
}

// ---- health ---------------------------------------------------------

// LatencySummary is one request class's latency view: quantiles are
// upper bucket bounds of a log2 histogram, in milliseconds.
type LatencySummary struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// SLOView is the overload-protection section of healthz: per-class
// latency quantiles plus shed/quota/timeout/coalesce accounting.
type SLOView struct {
	FG           LatencySummary `json:"fg"`
	BG           LatencySummary `json:"bg"`
	InflightFG   int            `json:"inflight_fg"`
	InflightBG   int            `json:"inflight_bg"`
	ShedFG       int64          `json:"shed_fg"`
	ShedBG       int64          `json:"shed_bg"`
	Quota429     int64          `json:"quota_429"`
	Timeouts     int64          `json:"timeouts"`
	CoalesceHits int64          `json:"coalesce_hits"`
	Draining     bool           `json:"draining"`
}

// ReplicaHealth is the follower metrics section, present on a node
// running with -follow.
type ReplicaHealth struct {
	ReplicaLagEpochs  uint64 `json:"replica_lag_epochs"`
	RecordsApplied    int64  `json:"records_applied"`
	RecordsSkipped    int64  `json:"records_skipped"`
	ReplicaPulls      int64  `json:"replica_pulls"`
	ReplicaBootstraps int64  `json:"replica_bootstraps"`
	ReplicaDiscards   int64  `json:"replica_discards"`
	ReplicaFaults     int64  `json:"replica_faults"`
}

// ClusterEndpointHealth is one probed endpoint (an owner or one of its
// replicas) in the coordinator's healthz.
type ClusterEndpointHealth struct {
	URL     string `json:"url"`
	Role    string `json:"role"` // "owner" | "replica"
	Healthy bool   `json:"healthy"`
	// ConsecutiveFailures counts probe failures since the last success;
	// the endpoint is ejected at the configured threshold.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// LagEpochs is the replica's replica_lag_epochs at the last probe
	// (always 0 for owners); replicas beyond the configured bound are
	// not read-eligible.
	LagEpochs uint64 `json:"lag_epochs"`
}

// ClusterMemberHealth is one cluster member (an owner node plus its
// replicas) in the coordinator's healthz.
type ClusterMemberHealth struct {
	Name      string                  `json:"name"`
	Endpoints []ClusterEndpointHealth `json:"endpoints"`
	// Graphs counts the graphs currently placed on this member.
	Graphs int `json:"graphs"`
}

// ClusterHealth is the coordinator's cluster section.
type ClusterHealth struct {
	Members []ClusterMemberHealth `json:"members"`
	// Graphs counts placements the coordinator is routing.
	Graphs int `json:"graphs"`
	// Proxied counts requests forwarded to members; ProxyErrors the
	// forwards that failed (the member answered nothing, not a non-2xx).
	Proxied     int64 `json:"proxied"`
	ProxyErrors int64 `json:"proxy_errors"`
}

// Health is the body of GET /healthz. On a coordinator only Status,
// SLO-independent counters and Cluster are meaningful; on a node the
// Cluster section is absent.
type Health struct {
	Status               string `json:"status"`
	Graphs               int    `json:"graphs"`
	Indexes              int    `json:"indexes"`
	IndexBuilt           int64  `json:"index_built"`
	IndexRefreshed       int64  `json:"index_refreshed"`
	IndexNodesRecomputed int64  `json:"index_nodes_recomputed"`
	SnapshotSaved        int64  `json:"snapshot_saved"`
	SnapshotLoaded       int64  `json:"snapshot_loaded"`
	BFSRuns              int64  `json:"bfs_runs"`
	DensityMemoHits      int64  `json:"density_memo_hits"`
	ScreensPlanned       int64  `json:"screens_planned"`
	ScreenPairsPruned    int64  `json:"screen_pairs_pruned"`
	MonitorsActive       int    `json:"monitors_active"`
	MonitorReruns        int64  `json:"monitor_reruns"`
	MonitorNodesReused   int64  `json:"monitor_nodes_reused"`
	WALAppends           int64  `json:"wal_appends"`
	WALFsyncs            int64  `json:"wal_fsyncs"`
	WALReplayed          int64  `json:"wal_replayed"`
	RecoveryEpoch        uint64 `json:"recovery_epoch"`
	RecordsShipped       int64  `json:"records_shipped"`
	// SLO is the overload-protection section (see docs/OVERLOAD.md).
	SLO SLOView `json:"slo"`
	// ReadOnly is set on replicas (mutations 403).
	ReadOnly bool `json:"read_only,omitempty"`
	// Follower metrics, present with -follow.
	*ReplicaHealth
	// Cluster is the coordinator's membership/placement section,
	// present only on a coordinator.
	Cluster *ClusterHealth `json:"cluster,omitempty"`
}

// ---- graph-name validation ------------------------------------------

// ValidateGraphName rejects names that do not survive a round-trip
// through URL path escaping. Graph names are path segments on every
// per-graph route and the routing key a cluster coordinator proxies on;
// a name whose escaped form differs from itself ("a/b", "x%2Fy", names
// with spaces or control bytes, "." and "..") may resolve differently
// — or to a different graph — across proxies, load balancers and
// clients that normalize paths. Enforced both at registration and at
// the router, so a name that cannot be routed can never exist.
func ValidateGraphName(name string) error {
	if name == "" {
		return fmt.Errorf("graph name must be non-empty")
	}
	if name == "." || name == ".." {
		return fmt.Errorf("graph name %q is a path navigation element", name)
	}
	if esc := url.PathEscape(name); esc != name {
		// This also rejects a literal "%": PathEscape always escapes it,
		// so a percent can never round-trip.
		return fmt.Errorf("graph name %q does not round-trip URL escaping (escapes to %q); use letters, digits, and - _ . : @", name, esc)
	}
	return nil
}
