package server

import (
	"context"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"tesc/api"
	"tesc/internal/monitor"
	"tesc/internal/replica"
	"tesc/internal/wal"
)

// Config parameterizes the service.
type Config struct {
	// IndexCacheCapacity bounds the number of cached vicinity indexes
	// across all (graph, maxLevel) keys (default 8). Each index costs
	// O(|V|) space per level (§4.2), so the bound caps daemon memory.
	IndexCacheCapacity int
	// IndexWorkers is the goroutine-pool size for index construction
	// (0 = GOMAXPROCS).
	IndexWorkers int
	// DataDir, when non-empty, enables the persistent snapshot store:
	// LoadData warm-starts the registry and index cache from the
	// directory's *.tescsnap files, and mutated entries are checkpointed
	// back in the background (see docs/PERSISTENCE.md).
	DataDir string
	// CheckpointDelay debounces background checkpoints: a mutation
	// marks its graph dirty, and the flush runs this long after the
	// first unflushed mark (default 2s), folding mutation bursts into
	// one snapshot write.
	CheckpointDelay time.Duration
	// FsyncPolicy selects the WAL durability level: "always" (default;
	// every acknowledged mutation is fsynced before the response),
	// "interval" (group fsync on a timer), or "off" (OS page cache
	// only). Meaningful only with DataDir.
	FsyncPolicy string
	// FsyncInterval is the group-fsync period under FsyncPolicy
	// "interval" (default 100ms).
	FsyncInterval time.Duration
	// WALSegmentBytes caps a WAL segment before rotation (default
	// 64 MiB).
	WALSegmentBytes int64
	// FS overrides the filesystem all durable state goes through; nil
	// means the real one. Tests inject wal.FaultFS to crash the store
	// at any chosen operation.
	FS wal.FS
	// ReadOnly makes the server a read replica: client-facing mutation
	// endpoints return 403 and state changes arrive only through the
	// attached replication follower (queries, monitor refreshes and
	// checkpoints still serve).
	ReadOnly bool
	// Admission bounds what the front door admits: per-tenant quotas,
	// foreground/background concurrency limits, client deadlines, and
	// the graceful-drain window. The zero value selects sane defaults
	// (see AdmissionConfig); invalid values fall back to them too — an
	// embedded caller's typo must not disable overload protection.
	Admission AdmissionConfig
	// Log receives request-level diagnostics; nil disables logging.
	Log *log.Logger
}

// Server is the tescd HTTP service: a graph registry, a vicinity-index
// cache, and an asynchronous screening-job tracker behind a JSON API,
// optionally backed by a persistent snapshot store.
type Server struct {
	registry     *Registry
	cache        *IndexCache
	jobs         *Jobs
	monitors     *monitor.Manager
	indexWorkers int
	logger       *log.Logger
	mux          *http.ServeMux

	// adm is the overload-protection front door: every /v1 route runs
	// behind its admission chain (see admission.go). flights coalesces
	// identical in-flight correlate calls.
	adm     *admission
	flights flightGroup

	// persist is nil without Config.DataDir. snapLoaded counts graphs
	// restored from snapshots (boot + admission-time imports);
	// snapSaved counts checkpoints written.
	persist    *persistState
	snapSaved  atomic.Int64
	snapLoaded atomic.Int64

	// walReplayed counts WAL records applied during recovery;
	// recoveryEpoch is the highest epoch any graph reached after
	// snapshot + log replay. Both surface in healthz.
	walReplayed   atomic.Int64
	recoveryEpoch atomic.Uint64

	// bfsRuns counts density-phase h-hop traversals performed across
	// all correlate queries and screening sweeps; memoHits the density
	// evaluations served from a memo instead of a traversal (screening's
	// cross-pair memo, a correlate's count memo). Their ratio is the
	// live view of how much of the §4.4 traversal bill the
	// flat-kernel/memo path is saving.
	bfsRuns  atomic.Int64
	memoHits atomic.Int64

	// screensPlanned counts planned (top-k / threshold) screening jobs
	// completed; pairsPruned the candidate pairs those jobs discarded
	// without a full test, by their prior or at a checkpoint — the live
	// view of the sweep work the planner is saving over exhaustive O(K²)
	// screening.
	screensPlanned atomic.Int64
	pairsPruned    atomic.Int64

	// readOnly gates the client-facing mutation endpoints on a replica.
	// recordsShipped counts WAL records served to followers; follower,
	// set by AttachFollower before serving, surfaces replication lag and
	// apply counters in healthz.
	readOnly       bool
	recordsShipped atomic.Int64
	follower       *replica.Follower

	// routes records every registered mux pattern ("METHOD /path") — the
	// OpenAPI drift gate asserts it matches api.Routes exactly.
	routes []string
}

// New assembles a server from the config.
func New(cfg Config) *Server {
	if cfg.IndexCacheCapacity == 0 {
		cfg.IndexCacheCapacity = 8
	}
	if cfg.CheckpointDelay == 0 {
		cfg.CheckpointDelay = 2 * time.Second
	}
	adm, err := newAdmission(cfg.Admission)
	if err != nil {
		// Invalid admission settings fall back to the defaults rather
		// than running unprotected; cmd/tescd validates flags before
		// they reach here, so this only guards embedded callers.
		adm, _ = newAdmission(AdmissionConfig{})
	}
	s := &Server{
		registry:     NewRegistry(),
		cache:        NewIndexCache(cfg.IndexCacheCapacity),
		jobs:         NewJobs(),
		monitors:     monitor.NewManager(),
		indexWorkers: cfg.IndexWorkers,
		logger:       cfg.Log,
		mux:          http.NewServeMux(),
		adm:          adm,
	}
	if cfg.DataDir != "" {
		fsys := cfg.FS
		if fsys == nil {
			fsys = wal.OSFS{}
		}
		policy, err := wal.ParsePolicy(cfg.FsyncPolicy)
		if err != nil {
			// Config strings are validated by the flag parser in cmd/tescd
			// before they reach here; an embedded caller's typo falls back
			// to the strictest policy rather than silently weakening
			// durability.
			policy = wal.SyncAlways
		}
		s.persist = &persistState{
			dir:         cfg.DataDir,
			delay:       cfg.CheckpointDelay,
			fs:          fsys,
			walPolicy:   policy,
			walInterval: cfg.FsyncInterval,
			walSegBytes: cfg.WALSegmentBytes,
			dirty:       make(map[string]struct{}),
			durable:     make(map[string]uint64),
		}
	}
	s.readOnly = cfg.ReadOnly
	// Mutation endpoints go through the read-only gate; on a replica
	// they 403 so every state change arrives via replication, keeping
	// follower state bit-for-bit derivable from the primary's log.
	//
	// Every /v1 route also runs behind the admission chain (admit),
	// classed foreground (point reads, mutations, correlate — the
	// latency-sensitive path) or background (screening, monitor work,
	// checkpoints — the analytic path that sheds first under load).
	// healthz and the replica protocol stay ungated: operators must be
	// able to observe an overloaded server, and followers must keep
	// streaming so shedding never grows replication lag.
	s.handle("POST /v1/graphs", s.admit(classForeground, s.mutating(s.handleRegisterGraph)))
	s.handle("GET /v1/graphs", s.admit(classForeground, s.handleListGraphs))
	s.handle("GET /v1/graphs/{name}", s.admit(classForeground, s.handleGetGraph))
	s.handle("DELETE /v1/graphs/{name}", s.admit(classForeground, s.mutating(s.handleDeleteGraph)))
	s.handle("POST /v1/graphs/{name}/events", s.admit(classForeground, s.mutating(s.handleRegisterEvents)))
	s.handle("DELETE /v1/graphs/{name}/events/{event}", s.admit(classForeground, s.mutating(s.handleDeleteEvent)))
	s.handle("POST /v1/graphs/{name}/edges", s.admit(classForeground, s.mutating(s.handleMutateEdges)))
	s.handle("POST /v1/graphs/{name}/snapshot", s.admit(classBackground, s.handleCheckpoint))
	s.handle("POST /v1/graphs/{name}/correlate", s.admit(classForeground, s.handleCorrelate))
	s.handle("POST /v1/graphs/{name}/screen", s.admit(classBackgroundJob, s.handleScreen))
	s.handle("POST /v1/graphs/{name}/monitors", s.admit(classBackground, s.mutating(s.handleCreateMonitor)))
	s.handle("GET /v1/graphs/{name}/monitors", s.admit(classForeground, s.handleListMonitors))
	s.handle("GET /v1/graphs/{name}/monitors/{id}", s.admit(classForeground, s.handleGetMonitor))
	s.handle("DELETE /v1/graphs/{name}/monitors/{id}", s.admit(classForeground, s.mutating(s.handleDeleteMonitor)))
	s.handle("POST /v1/graphs/{name}/monitors/{id}/refresh", s.admit(classBackground, s.handleRefreshMonitor))
	s.handle("GET /v1/jobs/{id}", s.admit(classForeground, s.handleGetJob))
	s.handle("DELETE /v1/jobs/{id}", s.admit(classForeground, s.handleCancelJob))
	s.handle("GET /healthz", s.handleHealth)
	s.handle("GET /v1/replica/status", s.handleReplicaStatus)
	s.handle("GET /v1/replica/graphs/{name}/snapshot", s.handleReplicaSnapshot)
	s.handle("GET /v1/replica/wal", s.handleReplicaWAL)
	return s
}

// handle registers a route, recording the pattern for Routes.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.routes = append(s.routes, pattern)
	s.mux.HandleFunc(pattern, h)
}

// mutating gates a client-facing mutation handler behind the read-only
// flag.
func (s *Server) mutating(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.readOnly {
			api.WriteError(w, api.CodeReadOnly, "read-only replica: send mutations to the primary")
			return
		}
		h(w, r)
	}
}

// Registry exposes the graph registry (for preloading at startup).
func (s *Server) Registry() *Registry { return s.registry }

// Cache exposes the vicinity-index cache (for warmup and metrics).
func (s *Server) Cache() *IndexCache { return s.cache }

// Handler returns the service's HTTP handler, for embedding or tests.
func (s *Server) Handler() http.Handler {
	if s.logger == nil {
		return s.mux
	}
	return logRequests(s.logger, s.mux)
}

// BeginDrain flips the server into drain mode: the admission chain
// answers every new request 503 "draining" (with Retry-After, so
// load balancers and retrying clients move to another replica) while
// in-flight requests run on. Idempotent.
func (s *Server) BeginDrain() {
	s.adm.draining.Store(true)
}

// Drain runs the job half of a graceful stop: stop admitting (BeginDrain,
// idempotent), cancel still-running screen jobs — they land in
// "cancelled", planned jobs keeping their partial ranking — and wait for
// the job goroutines to exit or ctx to expire, reporting which happened.
// Callers embedding the server (tests) pair it with Close, which
// flushes snapshots and closes the WAL; ListenAndServe does both on
// context cancellation.
func (s *Server) Drain(ctx context.Context) bool {
	s.BeginDrain()
	s.jobs.CancelAll()
	return s.jobs.Wait(ctx)
}

// ReadHeaderTimeout bounds how long tescd and the coordinator wait for
// a request's headers. A client that opens connections and never
// finishes its headers holds each one this long at most: admission
// only sees a request once its headers are in. An idle keep-alive
// connection is not timed; the clock starts at the next request's
// first bytes.
const ReadHeaderTimeout = 10 * time.Second

// NewHTTPServer returns the http.Server tescd and the coordinator
// listen with: h at addr, headers bounded by ReadHeaderTimeout.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: ReadHeaderTimeout}
}

// ListenAndServe runs the service at addr until the context is
// canceled, then drains gracefully under the configured drain window
// (AdmissionConfig.DrainTimeout, default 5s):
//
//  1. stop admitting — new requests get a typed 503 "draining";
//  2. let in-flight requests finish (http.Server.Shutdown);
//  3. cancel still-running screen jobs (they land in "cancelled",
//     planned jobs keeping their partial ranking) and wait for the
//     job goroutines to exit;
//  4. flush pending snapshot checkpoints and close the WAL (Close),
//     so every acknowledged mutation survives the restart.
//
// The ordering is load-bearing: jobs are cancelled before Close so no
// sweep can race the WAL teardown, and the WAL closes last so anything
// acknowledged during the drain is on disk.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	if addr == "" {
		addr = ":8537"
	}
	srv := NewHTTPServer(addr, s.Handler())
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.BeginDrain()
		drainCtx, cancel := context.WithTimeout(context.Background(), s.adm.cfg.DrainTimeout)
		defer cancel()
		err := srv.Shutdown(drainCtx)
		if !s.Drain(drainCtx) && s.logger != nil {
			s.logger.Printf("drain: job goroutines still running at the drain deadline")
		}
		s.Close()
		return err
	}
}

// logRequests wraps h with one log line per request.
func logRequests(logger *log.Logger, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		logger.Printf("%s %s -> %d (%s)", r.Method, r.URL.Path, rec.status, time.Since(start).Round(time.Microsecond))
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}
