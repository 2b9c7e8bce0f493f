package obshttp

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/history"
	"repro/internal/fault"
	"repro/internal/incident"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/vcache"
	"repro/model"
)

// This file is the checking service: POST /check accepts histories (single
// or batch), runs them through model.AllowsCtx on a shared bounded worker
// fleet, and returns verdicts with optional witness explanations. Deciding
// membership is NP-hard, so the service is overloadable by construction and
// is built around admission control rather than hope:
//
//   - Every check is admitted into a bounded queue under a per-tier budget
//     (small/default/heavy: candidate and node caps plus a deadline that
//     starts at admission, so queue wait counts against it).
//   - Every admitted check takes one solve path. On a cache-enabled tier it
//     goes through the verdict cache's core (vcache.CheckCanonical) over
//     its canonical form, and a miss solves through submit; everywhere else
//     (the heavy tier, an injected svc.cache fault, a history that defeats
//     canonicalization) it calls submit directly. submit is the one place a
//     job is built and enqueued; the fleet only runs model.AllowsCtx and
//     hands the engine verdict back. The handler then renders the verdict
//     in the caller's own labels and explains it (answer) — one rendering
//     and one explanation, whichever way the verdict came.
//   - When the queue is full the service answers immediately — 429 with
//     Retry-After by default, or (in degrade mode) a 200 whose verdict is
//     Unknown with reason "shed". Shedding never flips a verdict: the
//     answer is withheld, exactly as the check budgets withhold it.
//   - Graceful shutdown drains the queue: admission closes (503, /readyz
//     flips), queued and in-flight checks finish within the drain deadline,
//     and past the deadline in-flight checks are hard-cancelled (they
//     return Unknown promptly — budgets made every checker cancellable).
//   - Request accounting is an invariant, not a best effort: every check
//     received is classified exactly once, by its handler on its way out,
//     as admitted (ran to a verdict, or its answer was withheld because
//     the client left or the deadline passed), shed (bounced by admission
//     or drain), or failed (malformed, checker error, or contained panic),
//     so admitted + shed + failed == received holds in the obs registry at
//     every quiescent point. A check's run_finish comes from its handler
//     too, except when the answer is withheld while the fleet still runs
//     the job: then the fleet emits it when the job ends (deliver), so
//     /runs and the flight recorder carry the check's real outcome. The
//     chaos suite injects panics, delays and errors at every fault point
//     on this path and asserts exactly that, plus verdict stability and
//     zero goroutine leaks.
type checkRequest struct {
	// History is the system execution history in the paper's notation
	// (one processor per line or '|'-separated).
	History string `json:"history"`
	// Model names the memory model to check against (model.ByName).
	Model string `json:"model"`
	// Tier selects the admission budget: "small", "default" (the default)
	// or "heavy".
	Tier string `json:"tier,omitempty"`
	// Explain asks for the witness explanation (model/explain.go JSON) on
	// decided verdicts.
	Explain bool `json:"explain,omitempty"`
	// Degrade overrides the server's shed mode for this check: true sheds
	// as a 200 Unknown{reason: shed}, false as 429 + Retry-After.
	Degrade *bool `json:"degrade,omitempty"`
}

// checkBatch is the batch form of the request body: {"checks": [...]}.
type checkBatch struct {
	Checks []checkRequest `json:"checks"`
}

// checkResult is one check's outcome. Status is the per-check HTTP-style
// status (it becomes the response status for single-check requests).
type checkResult struct {
	ID     string `json:"id"`
	Model  string `json:"model,omitempty"`
	Tier   string `json:"tier,omitempty"`
	Status int    `json:"status"`
	// Verdict is "allowed", "forbidden" or "unknown"; empty when the
	// check failed outright (see Error).
	Verdict string `json:"verdict,omitempty"`
	// Reason qualifies an "unknown" verdict: the engine's reasons
	// ("deadline exceeded", "budget exhausted", "canceled") or the
	// service's ("shed", "draining").
	Reason string `json:"reason,omitempty"`
	Error  string `json:"error,omitempty"`
	// Candidates/Nodes/Frontier are the check's progress counters.
	Candidates int64 `json:"candidates,omitempty"`
	Nodes      int64 `json:"nodes,omitempty"`
	Frontier   int   `json:"frontier,omitempty"`
	// WallUs is the wall-clock time from admission to verdict.
	WallUs int64 `json:"wall_us,omitempty"`
	// WaitUs / SolveUs break WallUs down: time queued before a fleet
	// worker picked the check up, and time inside the solver — sourced
	// from the queue and solve spans. Cache-served checks have neither.
	WaitUs  int64 `json:"wait_us,omitempty"`
	SolveUs int64 `json:"solve_us,omitempty"`
	// Explanation is the model/explain.go JSON when requested and
	// available; ExplainError reports why it is missing despite Explain.
	Explanation  json.RawMessage `json:"explanation,omitempty"`
	ExplainError string          `json:"explain_error,omitempty"`
}

// Tier is one admission-control budget class: how much NP-hard work a
// single check may buy, and how long it may take end to end (the deadline
// clock starts at admission, so time spent queued counts).
type Tier struct {
	Name          string
	MaxCandidates int64
	MaxNodes      int64
	Deadline      time.Duration
	// Cache enables the content-addressed verdict cache for this tier
	// (when the service has one). The heavy tier stays uncached: it is the
	// escape hatch that buys a fresh full-budget solve, never a replay.
	Cache bool
}

// Tiers returns the service's admission tiers. The zero name maps to
// "default".
func Tiers() []Tier {
	return []Tier{
		{Name: "small", MaxCandidates: 1 << 10, MaxNodes: 1 << 14, Deadline: 250 * time.Millisecond, Cache: true},
		{Name: "default", MaxCandidates: 1 << 16, MaxNodes: 1 << 20, Deadline: 2 * time.Second, Cache: true},
		{Name: "heavy", MaxCandidates: 1 << 20, MaxNodes: 1 << 24, Deadline: 10 * time.Second},
	}
}

// tierByName resolves a request's tier field.
func tierByName(name string) (Tier, error) {
	if name == "" {
		name = "default"
	}
	for _, t := range Tiers() {
		if t.Name == name {
			return t, nil
		}
	}
	return Tier{}, fmt.Errorf("unknown tier %q (have small, default, heavy)", name)
}

// budget is the tier's work budget.
func (t Tier) budget() model.Budget {
	return model.Budget{MaxCandidates: t.MaxCandidates, MaxNodes: t.MaxNodes}
}

// CheckOptions configures the checking service a Server enables with
// EnableCheck.
type CheckOptions struct {
	// Workers sizes the shared checking fleet (pool.Size convention:
	// <= 0 means one per CPU). Each check itself runs sequentially; the
	// fleet is where the parallelism lives.
	Workers int
	// QueueDepth bounds the admission queue (default 64). A full queue
	// sheds, it never grows.
	QueueDepth int
	// Degrade selects the default shed mode: true answers over-capacity
	// checks 200 Unknown{reason: shed} instead of 429. Per-request
	// "degrade" overrides it.
	Degrade bool
	// DrainTimeout bounds graceful shutdown: how long Shutdown waits for
	// queued and in-flight checks before hard-cancelling them (default
	// 5s).
	DrainTimeout time.Duration
	// Enumerate pins every check to the exhaustive enumerator
	// (model.RouteEnumerate) instead of the fast-path router.
	Enumerate bool
	// CacheSize enables the content-addressed verdict cache
	// (internal/vcache) on cache-enabled tiers, bounded to this many
	// entries (0 = no cache). Histories are canonicalized
	// (history.Canonicalize) so relabeled variants share one solve;
	// Unknown verdicts are never cached.
	CacheSize int
	// Cache supplies a pre-built verdict cache instead of CacheSize —
	// cliflags uses it to share one cache between the service and the
	// process's own in-context checks.
	Cache *vcache.Cache
}

// checker is the service core behind POST /check: the bounded queue, the
// worker fleet, and the request accounting.
type checker struct {
	jobs chan *job
	// pending tracks every job the fleet owns (id -> *job), so a
	// pool-level fault that kills a worker before the job's own recover
	// runs can still be answered — no request is ever lost between
	// enqueue and its handler.
	pending sync.Map

	mu       sync.RWMutex // guards draining vs. enqueue (send-on-closed)
	draining bool

	ctx    context.Context // fleet context; cancelled = hard stop
	cancel context.CancelFunc

	fleetDone chan struct{}
	inflight  atomic.Int64

	degrade      bool
	drainTimeout time.Duration

	// cache is the content-addressed verdict cache, nil when disabled.
	cache *vcache.Cache

	sink obs.Sink
	// rec is the flight recorder, nil (and nil-safe) when EnableIncidents
	// was not called. The checker feeds it the check's identity (NoteCheck)
	// and outcome (NoteVerdict) and triggers captures on contained panics.
	rec *incident.Recorder

	received, admitted, shed, failed *obs.Counter
	deadline                         *obs.Counter
	queueDepth, inflightG            *obs.Gauge
	waitUs, runUs                    *obs.Histogram
}

// job is one admitted check traveling from handler to fleet.
type job struct {
	id     string
	m      model.Model
	sys    *history.System
	tier   Tier
	ctx    context.Context // budget + deadline, started at admission
	cancel context.CancelFunc
	enq    time.Time
	done   chan outcome // buffered: the fleet never blocks on a gone handler
	// span is the check's root span; qspan is its queue-wait child,
	// opened at enqueue and ended by the fleet worker that picks the job
	// up (Cancel'd when the job is flushed instead). Both are nil-safe.
	span  *obs.Span
	qspan *obs.Span
	// settled is set by whichever comes first: deliver, or a handler that
	// withholds the answer and hands the run_finish off (handOff) — then
	// deliver emits it with the fleet's outcome.
	settled atomic.Bool
}

// outcome is what the fleet hands back on a job's done channel: the engine
// verdict, or err (a svcError) when the check ended without one, and where
// the job's time went — queued, then in the solver.
type outcome struct {
	v               model.Verdict
	err             error
	waitUs, solveUs int64
}

// svcError is a check's outcome when it ended without an engine verdict:
// an enqueue rejection, a drain-time shed, a checker failure or a withheld
// answer. It crosses the verdict cache's single-flight boundary, so every
// request that shared the solve answers with the same outcome under its
// own id, and counts itself under kind.
type svcError struct {
	res  checkResult // ID is overwritten per request
	kind string      // "admitted" (answer withheld), "shed" or "failed"
}

func (e svcError) Error() string {
	if e.res.Error != "" {
		return e.res.Error
	}
	return e.res.Reason
}

// unknown is j's answer withheld for reason, counted as kind.
func (j *job) unknown(kind string, status int, reason string) outcome {
	return outcome{err: svcError{kind: kind, res: checkResult{ID: j.id, Model: j.m.Name(),
		Tier: j.tier.Name, Status: status, Verdict: "unknown", Reason: reason}}}
}

// failed is j ending in an error instead of a verdict.
func (j *job) failed(status int, msg string) outcome {
	return outcome{err: svcError{kind: "failed", res: checkResult{ID: j.id, Model: j.m.Name(),
		Tier: j.tier.Name, Status: status, Error: msg}}}
}

// String renders a job as its request ID — it is what pool.Drain's
// *PanicError reports as the shard, which is how the fleet maps a
// pool-level fault back to the job it killed.
func (j *job) String() string { return j.id }

// EnableCheck turns on the POST /check serving path with its admission
// queue and worker fleet. Call it after New and before Handler/Start;
// Shutdown drains the fleet. Calling it twice replaces nothing — the
// first call wins.
func (s *Server) EnableCheck(opts CheckOptions) {
	if s.check != nil {
		return
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 5 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	ctx = obs.WithRegistry(ctx, s.reg)
	if opts.Enumerate {
		ctx = model.WithRoute(ctx, model.RouteEnumerate)
	}
	cache := opts.Cache
	if cache == nil && opts.CacheSize > 0 {
		cache = vcache.New(opts.CacheSize, s.reg)
	}
	var rec *incident.Recorder
	if s.inc != nil {
		rec = s.inc.rec
		if cache != nil && s.inc.opts.AuditEvery > 0 {
			// Arm the cache-hit audit: a background re-solve that
			// disagrees with the cached verdict is a captured incident —
			// the cache is lying, and the bundle carries both answers.
			cache.SetAuditEvery(s.inc.opts.AuditEvery)
			cache.OnDivergence = func(modelName, enc string, cached, fresh model.Verdict) {
				was, _ := cached.Outcome()
				now, _ := fresh.Outcome()
				rec.CaptureNow("", incident.Trigger{
					Kind: "cache-divergence",
					Detail: fmt.Sprintf("model %s: cached %s, fresh re-solve %s for %q",
						modelName, was, now, enc),
				})
			}
		}
	}
	c := &checker{
		jobs:         make(chan *job, opts.QueueDepth),
		ctx:          ctx,
		cancel:       cancel,
		fleetDone:    make(chan struct{}),
		degrade:      opts.Degrade,
		drainTimeout: opts.DrainTimeout,
		cache:        cache,
		sink:         s.sink,
		rec:          rec,
		received:     s.reg.Counter("svc.check.received"),
		admitted:     s.reg.Counter("svc.check.admitted"),
		shed:         s.reg.Counter("svc.check.shed"),
		failed:       s.reg.Counter("svc.check.failed"),
		deadline:     s.reg.Counter("svc.check.deadline"),
		queueDepth:   s.reg.Gauge("svc.check.queue_depth"),
		inflightG:    s.reg.Gauge("svc.check.inflight"),
		waitUs:       s.reg.Histogram("svc.check.wait_us"),
		runUs:        s.reg.Histogram("svc.check.run_us"),
	}
	s.check = c
	workers := pool.Size(opts.Workers)
	go func() {
		defer close(c.fleetDone)
		for {
			// The fleet reuses pool.Drain; runJob recovers every payload
			// panic itself, so the only panics pool's containment sees
			// are faults injected at pool's own points (fault.PoolGo,
			// fault.PoolDrain). Those cancel the fleet — so answer the
			// job the panic killed (its id is the PanicError's shard)
			// and restart, rather than abandoning the queue.
			err := pool.Drain(c.ctx, workers, c.jobs, c.process)
			if err == nil || c.ctx.Err() != nil {
				break
			}
			var pe *pool.PanicError
			if errors.As(err, &pe) && pe.Shard != "" {
				if v, ok := c.pending.Load(pe.Shard); ok {
					j := v.(*job)
					j.cancel()
					// Capture before delivery: the panic trigger merges
					// into any pending fault trigger, and the run_finish
					// that follows delivery seals the bundle with the
					// outcome.
					c.rec.Capture(j.id, incident.Trigger{
						Kind: "panic", Detail: pe.Error(),
					})
					c.deliver(j, j.failed(http.StatusInternalServerError, pe.Error()))
				}
			}
			time.Sleep(time.Millisecond) // a persistent fault must not spin the restart loop hot
		}
		// Hard-cancel path: workers may have exited on c.ctx with checks
		// still queued. The queue is closed by then (drain closes it
		// before cancelling), so flush what is left to its handlers as
		// shed — nothing admitted to the queue goes unanswered.
		for j := range c.jobs {
			c.queueDepth.Set(int64(len(c.jobs)))
			j.qspan.Cancel()
			j.cancel()
			c.deliver(j, j.unknown("shed", http.StatusServiceUnavailable, "draining"))
		}
		// Belt and braces: anything still pending (a pool fault whose
		// shard did not resolve) is answered as failed rather than leaked.
		c.pending.Range(func(_, v any) bool {
			j := v.(*job)
			j.qspan.Cancel()
			j.cancel()
			c.deliver(j, j.failed(http.StatusInternalServerError, "check lost to a worker fault"))
			return true
		})
	}()
}

// reqSeq and reqPrefix generate process-unique request IDs for requests
// that arrive without an X-Request-ID header.
var reqSeq atomic.Int64
var reqPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "req"
	}
	return hex.EncodeToString(b[:])
}()

func newRequestID() string {
	return fmt.Sprintf("%s-%06d", reqPrefix, reqSeq.Add(1))
}

// handleCheck is POST /check: parse one check or a batch, admit each into
// the queue, and collect verdicts. The per-request ID (X-Request-ID, or
// generated) is echoed in the response header, carried on every result,
// and threaded into the trace events so a check correlates across /trace
// and /runs.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	c := s.check
	reqID := r.Header.Get("X-Request-ID")
	if reqID == "" {
		reqID = newRequestID()
	}
	w.Header().Set("X-Request-ID", reqID)

	// The root span brackets the request end to end; the admit, queue,
	// cache, solve, explain and encode children hang off it, Req-stamped,
	// so /trace SSE and -trace JSONL carry a reconstructable tree per
	// request. Nil (and free) when the server has no sink or registry.
	root := obs.NewSpan(c.sink, s.reg, "request", reqID)
	defer root.End()

	if err := fault.Check(fault.SvcHandler, 0, reqID); err != nil {
		c.received.Add(1)
		c.failed.Add(1)
		c.emitFinish(checkResult{ID: reqID, Status: http.StatusInternalServerError, Error: err.Error()})
		writeJSON(w, http.StatusInternalServerError, checkResult{
			ID: reqID, Status: http.StatusInternalServerError, Error: err.Error(),
		})
		return
	}

	body := http.MaxBytesReader(w, r.Body, 1<<20)
	var raw json.RawMessage
	if err := json.NewDecoder(body).Decode(&raw); err != nil {
		c.received.Add(1)
		c.failed.Add(1)
		c.emitFinish(checkResult{ID: reqID, Status: http.StatusBadRequest, Error: err.Error()})
		writeJSON(w, http.StatusBadRequest, checkResult{
			ID: reqID, Status: http.StatusBadRequest, Error: "bad request body: " + err.Error(),
		})
		return
	}

	// A body with a "checks" array is a batch; anything else must be a
	// single check object.
	var batch checkBatch
	single := true
	if err := json.Unmarshal(raw, &batch); err == nil && batch.Checks != nil {
		single = false
	} else {
		var one checkRequest
		if err := json.Unmarshal(raw, &one); err != nil {
			c.received.Add(1)
			c.failed.Add(1)
			c.emitFinish(checkResult{ID: reqID, Status: http.StatusBadRequest, Error: err.Error()})
			writeJSON(w, http.StatusBadRequest, checkResult{
				ID: reqID, Status: http.StatusBadRequest, Error: "bad check object: " + err.Error(),
			})
			return
		}
		batch.Checks = []checkRequest{one}
	}

	results := make([]checkResult, len(batch.Checks))
	for i, req := range batch.Checks {
		id := reqID
		if !single {
			id = fmt.Sprintf("%s.%d", reqID, i)
		}
		results[i] = c.do(r.Context(), id, req, root)
	}

	enc := root.Child("encode")
	defer enc.End()
	if single {
		res := results[0]
		if res.Status == http.StatusTooManyRequests || res.Status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", retryAfter(results[0].Tier))
		}
		writeJSON(w, res.Status, res)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		ID      string        `json:"id"`
		Results []checkResult `json:"results"`
	}{ID: reqID, Results: results})
}

// retryAfter suggests a retry delay in whole seconds: the tier's deadline
// rounded up — by then the head of the queue has either finished or been
// cut off.
func retryAfter(tierName string) string {
	t, err := tierByName(tierName)
	if err != nil {
		t, _ = tierByName("")
	}
	secs := int(math.Ceil(t.Deadline.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// do runs one check end to end: admission, one solve path, the rendered
// answer. Every path out of this function classifies the check exactly
// once — as admitted, shed, or failed — and emits its run_finish. root is
// the request's root span (nil-safe); do hangs the admit, canonicalize,
// queue, solve and explain children off it, stamped with this check's id.
func (c *checker) do(ctx context.Context, id string, req checkRequest, root *obs.Span) (res checkResult) {
	c.received.Add(1)
	counted := false
	defer func() {
		if v := recover(); v != nil {
			// A fault injected on the handler path (admission hook,
			// enqueue hook) must not leak an unaccounted request or kill
			// the connection.
			c.rec.Capture(id, incident.Trigger{
				Kind: "panic", Detail: fmt.Sprintf("handler path: %v", v),
			})
			res = checkResult{ID: id, Model: req.Model, Status: http.StatusInternalServerError,
				Error: fmt.Sprintf("panic: %v", v)}
			if !counted {
				c.failed.Add(1)
			}
			c.emitFinish(res)
		}
	}()

	degrade := c.degrade
	if req.Degrade != nil {
		degrade = *req.Degrade
	}

	// The admit span covers tier resolution, parsing, model lookup and
	// the admission decision; it ends before the check enters the cache
	// or the queue. End is idempotent, so classify's End is a no-op after
	// admission.
	admit := root.Child("admit")
	admit.SetReq(id)

	// classify counts the check under kind and emits its run_finish,
	// unless the fleet owes it (handedOff). A shed check answers 200
	// Unknown{shed} in degrade mode, 429/503 otherwise — never an
	// unbounded queue.
	handedOff := false
	classify := func(kind string, res checkResult) checkResult {
		admit.End()
		switch kind {
		case "admitted":
			c.admitted.Add(1)
		case "shed":
			c.shed.Add(1)
			if degrade {
				res.Status = http.StatusOK
			}
		default:
			c.failed.Add(1)
		}
		counted = true
		if !handedOff {
			c.emitFinish(res)
		}
		return res
	}
	fail := func(status int, err error) checkResult {
		admit.Attr("outcome", "failed")
		return classify("failed", checkResult{ID: id, Model: req.Model, Status: status, Error: err.Error()})
	}

	tier, err := tierByName(req.Tier)
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	sys, err := history.Parse(req.History)
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	m, err := model.ByName(req.Model)
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	// Fleet-level parallelism only: each check runs its checker
	// sequentially, so one heavy check cannot commandeer every CPU.
	m = model.WithWorkers(m, 1)
	route := model.RouteFromContext(c.ctx)

	// The flight recorder learns the check's full identity the moment it
	// is resolved, so a trigger at any later point — even one that kills
	// the solve — seals a bundle that can be replayed.
	c.rec.NoteCheck(id, incident.CheckInfo{
		History:       req.History,
		Model:         m.Name(),
		Tier:          tier.Name,
		Route:         route.String(),
		MaxCandidates: tier.MaxCandidates,
		MaxNodes:      tier.MaxNodes,
		DeadlineMs:    tier.Deadline.Milliseconds(),
	})

	c.emit(obs.Event{Type: obs.EvRunStart, Req: id, Model: m.Name(),
		Ops: sys.NumOps(), Procs: sys.NumProcs(), Detail: "svc tier=" + tier.Name})

	if err := fault.Check(fault.SvcAdmit, 0, id); err != nil {
		admit.Attr("outcome", "shed")
		return classify("shed", checkResult{ID: id, Model: m.Name(), Tier: tier.Name,
			Status: http.StatusTooManyRequests, Verdict: "unknown", Reason: "shed"})
	}
	admit.Attr("tier", tier.Name)
	admit.End()

	// The one solve path. On a cache-enabled tier the verdict cache sits
	// between admission and the queue: cache-served checks consume no
	// queue or fleet capacity, relabeled variants of one history collapse
	// onto one solve of its canonical form, and that solve runs detached
	// from any one client (a wait that is never done), so it completes and
	// fills the cache even if every waiting client disconnects. Everything
	// else calls submit directly under the client's context. WallUs starts
	// after canonicalization, which has its own span.
	canon, ren := c.canonical(id, sys, tier, root)
	start := time.Now()
	var o outcome
	var v model.Verdict
	if canon != nil {
		// root.Context nests the cache's lookup and coalesce spans under
		// this request; the route keys the lookup and, with the budget,
		// bounds a hit's audit.
		cctx := model.WithRoute(model.WithBudget(root.Context(ctx), tier.budget()), route)
		v, _, err = vcache.CheckCanonical(cctx, c.cache, m, canon, ren, func() (model.Verdict, error) {
			o = c.submit(context.WithoutCancel(ctx), id, canon, m, tier, root)
			return o.v, o.err
		})
	} else {
		o = c.submit(ctx, id, sys, m, tier, root)
		v, err = o.v, o.err
	}

	// o is this check's own finished solve, or zero when the cache
	// answered it (a hit solved nothing).
	kind := "admitted"
	var se svcError
	switch {
	case err == nil:
		res = answer(id, m, sys, tier, v, req.Explain, root)
		res.WaitUs, res.SolveUs = o.waitUs, o.solveUs
	case errors.As(err, &se):
		res, kind = se.res, se.kind
		res.ID = id
		res.WaitUs, res.SolveUs = o.waitUs, o.solveUs
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away while waiting on the cache. The solve it
		// shares (or started) runs on and fills the cache; this check's
		// answer is withheld, not refused. o may still be written by
		// that solve, so it is not read here.
		res = checkResult{ID: id, Model: m.Name(), Tier: tier.Name,
			Status: statusClientClosedRequest, Verdict: "unknown", Reason: "canceled"}
	default:
		// The solve died before the fleet owned a job — e.g. a panic
		// injected at enqueue, contained by the cache's flight.
		res = checkResult{ID: id, Model: m.Name(), Tier: tier.Name,
			Status: http.StatusInternalServerError, Error: err.Error()}
		kind = "failed"
	}
	res.WallUs = time.Since(start).Microseconds()
	// A withheld answer (499, 504) whose job the fleet still runs leaves
	// the run_finish to the fleet, so /runs and the flight recorder see
	// how the check really ended: one trail, one bundle, solve included.
	handedOff = kind == "admitted" && res.Status != http.StatusOK && c.handOff(id)
	return classify(kind, res)
}

// handOff leaves the run_finish of check id to the fleet when its job is
// still there undelivered, and reports whether it did.
func (c *checker) handOff(id string) bool {
	v, ok := c.pending.Load(id)
	return ok && v.(*job).settled.CompareAndSwap(false, true)
}

// canonical returns sys's canonical form and the renaming back to sys when
// the check goes through the verdict cache, or nils when it solves
// directly: a tier without the cache (heavy is the escape hatch that buys
// a fresh solve), an injected svc.cache fault, or a history whose symmetry
// class defeats canonicalization — so the cache can fail without flipping
// any verdict.
func (c *checker) canonical(id string, sys *history.System, tier Tier, root *obs.Span) (*history.System, *history.Renaming) {
	if c.cache == nil || !tier.Cache || fault.Check(fault.SvcCache, 0, id) != nil {
		return nil, nil
	}
	sp := root.Child("canonicalize")
	sp.SetReq(id)
	canon, ren, err := history.Canonicalize(sys)
	sp.End()
	if err != nil {
		return nil, nil
	}
	if c.rec != nil {
		c.rec.NoteCanonical(id, history.Format(canon))
	}
	return canon, ren
}

// submit is the one way a check reaches the fleet: it builds the job for
// sys under the tier's budget and a deadline starting now, enqueues it, and
// waits for the engine verdict. A full queue or a draining service sheds
// the check at once, and a job the fleet ends without a verdict comes back
// as its svcError. ctx is the wait's client: when it is done the answer
// is withheld (499) while the fleet still runs the check. Past the tier
// deadline the fleet normally answers within a polling stride; after
// handlerGrace more the answer is withheld as 504 rather than hang the
// connection (a fleet wedged by an injected stall answers at drain time).
func (c *checker) submit(ctx context.Context, id string, sys *history.System, m model.Model, tier Tier, root *obs.Span) outcome {
	now := time.Now()
	jctx, jcancel := context.WithDeadline(c.ctx, now.Add(tier.Deadline))
	j := &job{
		id: id, m: m, sys: sys, tier: tier,
		ctx: model.WithBudget(jctx, tier.budget()), cancel: jcancel,
		enq: now, done: make(chan outcome, 1),
		span: root, qspan: root.Child("queue"),
	}
	j.qspan.SetReq(id)
	switch c.enqueue(j) {
	case admitDraining:
		j.qspan.Cancel()
		jcancel()
		return j.unknown("shed", http.StatusServiceUnavailable, "draining")
	case admitFull:
		j.qspan.Cancel()
		jcancel()
		return j.unknown("shed", http.StatusTooManyRequests, "shed")
	}
	select {
	case o := <-j.done:
		return o
	case <-ctx.Done():
		return j.unknown("admitted", statusClientClosedRequest, "canceled")
	case <-jctx.Done():
		select {
		case o := <-j.done:
			return o
		case <-ctx.Done():
			return j.unknown("admitted", statusClientClosedRequest, "canceled")
		case <-time.After(handlerGrace):
			return j.unknown("admitted", http.StatusGatewayTimeout, "deadline exceeded")
		}
	}
}

// answer renders a verdict — already in the caller's labels — as the
// check's result, and explains it against the caller's own history when
// asked: the service's one rendering and one explanation, whichever path
// the verdict took. A failed explanation (an injected svc.explain fault
// included) loses the explanation, never the verdict.
func answer(id string, m model.Model, sys *history.System, tier Tier, v model.Verdict, explain bool, root *obs.Span) checkResult {
	explain = explain && v.Decided()
	var ferr error
	if explain {
		sp := root.Child("explain")
		sp.SetReq(id)
		defer sp.End()
		ferr = fault.Check(fault.SvcExplain, 0, id)
	}
	info, err := incident.Outcome(m, sys, v, explain && ferr == nil)
	res := checkResult{ID: id, Model: m.Name(), Tier: tier.Name, Status: http.StatusOK,
		Verdict: info.Verdict, Reason: info.Reason,
		Candidates: info.Candidates, Nodes: info.Nodes, Frontier: info.Frontier,
		Explanation: info.Explanation}
	if err = cmp.Or(ferr, err); err != nil {
		res.ExplainError = err.Error()
	}
	return res
}

// handlerGrace is how long past its deadline a handler waits for the
// fleet's verdict before answering 504 on its own.
const handlerGrace = time.Second

// statusClientClosedRequest is nginx's 499: the client disconnected
// before the verdict was ready. The fleet still runs the check to its
// end; the check is accounted as admitted, its answer withheld, and the
// fleet emits its run_finish.
const statusClientClosedRequest = 499

type admitResult int

const (
	admitOK admitResult = iota
	admitFull
	admitDraining
)

// enqueue offers j to the bounded queue without ever blocking: a full
// queue is the caller's problem (shed), not the fleet's. The read lock
// excludes the drain path's close(jobs), so admission during shutdown is
// a clean "draining" answer rather than a send on a closed channel.
func (c *checker) enqueue(j *job) admitResult {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.draining {
		return admitDraining
	}
	fault.Hit(fault.SvcEnqueue, 0, j.id)
	c.pending.Store(j.id, j)
	select {
	case c.jobs <- j:
		c.queueDepth.Set(int64(len(c.jobs)))
		return admitOK
	default:
		c.pending.Delete(j.id)
		return admitFull
	}
}

// process is the fleet worker payload: run the check and hand its outcome
// back to the waiting handler. Panics are recovered in runJob, so one
// poisoned request never takes the fleet down.
func (c *checker) process(w int, j *job) {
	defer j.cancel()
	c.queueDepth.Set(int64(len(c.jobs)))
	c.inflightG.Set(c.inflight.Add(1))
	defer func() { c.inflightG.Set(c.inflight.Add(-1)) }()
	j.qspan.End()
	wait := time.Since(j.enq)
	if d := j.qspan.Duration(); d > 0 {
		wait = d
	}
	c.waitUs.Observe(wait.Microseconds())

	start := time.Now()
	o := c.runJob(w, j)
	o.waitUs = wait.Microseconds()
	c.runUs.Observe(time.Since(start).Microseconds())
	c.deliver(j, o)
}

// deliver hands a fleet-owned job's outcome to its handler, which
// classifies and answers it. Every job is delivered exactly once: by the
// worker that ran it, or by the drain and fault flushes. When the handler
// has withheld the answer and handed the run_finish off, deliver emits it
// here, rendered without an explanation (nobody reads one); the handler
// has already counted the check.
func (c *checker) deliver(j *job, o outcome) {
	c.pending.Delete(j.id)
	if !j.settled.CompareAndSwap(false, true) {
		var res checkResult
		if se := (svcError{}); errors.As(o.err, &se) {
			res = se.res
		} else {
			res = answer(j.id, j.m, j.sys, j.tier, o.v, false, nil)
		}
		res.WaitUs, res.SolveUs = o.waitUs, o.solveUs
		res.WallUs = time.Since(j.enq).Microseconds()
		c.emitFinish(res)
	}
	j.done <- o
}

// runJob solves one admitted check under its tier budget, with every
// panic contained to this check.
func (c *checker) runJob(w int, j *job) (o outcome) {
	var solve *obs.Span
	defer func() {
		if v := recover(); v != nil {
			solve.End() // idempotent; a dangling phase still closes
			// The capture defers to this job's run_finish (emitted by its
			// handler once this outcome arrives, or by deliver when the
			// handler has left): one bundle, complete trail, panic
			// attributed — merged with the fault trigger if an injected
			// fault observer already marked this request.
			c.rec.Capture(j.id, incident.Trigger{
				Kind: "panic", Detail: fmt.Sprintf("worker %d: %v", w, v),
			})
			o = j.failed(http.StatusInternalServerError, fmt.Sprintf("panic: %v", v))
		}
	}()
	fault.Hit(fault.SvcWorker, w, j.id)

	solve = j.span.Child("solve")
	solve.SetReq(j.id)
	v, err := model.AllowsCtx(j.ctx, j.m, j.sys)
	solve.End()
	if err != nil {
		// The question itself was malformed for this checker (oversized
		// history, ambiguous reads-from) — a client error, not overload.
		o = j.failed(http.StatusUnprocessableEntity, err.Error())
	} else {
		o.v = v
	}
	o.solveUs = solve.Duration().Microseconds()
	return o
}

// drain shuts the service down gracefully: close admission, let the
// fleet finish the queue, and past the drain deadline hard-cancel
// whatever is left (checks return Unknown promptly — every checker is
// cancellable). It returns nil when the drain completed within the
// deadline.
func (c *checker) drain(ctx context.Context) error {
	if c.drainTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.drainTimeout)
		defer cancel()
	}
	c.mu.Lock()
	already := c.draining
	if !already {
		c.draining = true
		close(c.jobs)
	}
	c.mu.Unlock()
	fault.Hit(fault.SvcDrain, 0, nil)

	select {
	case <-c.fleetDone:
		return nil
	case <-ctx.Done():
		// Deadline passed with work still in flight: hard-cancel and wait
		// for the fleet to wind down (prompt — cancellation is polled at
		// budget stride).
		c.cancel()
		<-c.fleetDone
		return fmt.Errorf("obshttp: drain deadline exceeded; in-flight checks were cancelled")
	}
}

// emit sends a service event into the server's sink (broadcast + runs
// ring), if one is attached.
func (c *checker) emit(e obs.Event) {
	if c.sink != nil {
		c.sink.Emit(obs.Stamp(e))
	}
}

// emitFinish renders a terminal checkResult as the run-finish trace
// event, carrying the request ID for /trace–/runs correlation and the
// queue-wait/solve breakdown sourced from the check's spans, so /runs
// entries show where a slow check's time went.
func (c *checker) emitFinish(res checkResult) {
	if res.Reason == "deadline exceeded" {
		// Deadline cutoffs are SLO-bad alongside sheds: the client asked a
		// question the service withheld the answer to. The burn-rate
		// sampler folds this counter into the error budget.
		c.deadline.Add(1)
	}
	// The recorder learns the outcome before the run_finish event flows,
	// so a trail sealing on that event carries verdict and witness.
	c.rec.NoteVerdict(res.ID, incident.CheckInfo{
		Verdict:     res.Verdict,
		Reason:      res.Reason,
		Error:       res.Error,
		Candidates:  res.Candidates,
		Nodes:       res.Nodes,
		Frontier:    res.Frontier,
		WallUs:      res.WallUs,
		Explanation: res.Explanation,
	})
	c.emit(obs.Event{Type: obs.EvRunFinish, Req: res.ID, Model: res.Model,
		Verdict: res.Verdict, Reason: res.Reason, Detail: res.Error,
		Candidates: res.Candidates, Nodes: res.Nodes, Frontier: res.Frontier,
		WaitUs: res.WaitUs, SolveUs: res.SolveUs})
}

// writeJSON writes v as the response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}
