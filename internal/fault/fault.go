// Package fault is the repository's fault-injection layer: named points
// compiled into production code paths, with injectable faults — panics,
// delays, errors, or arbitrary hooks — installed per point, fired by
// deterministic or probabilistic triggers. It generalizes the test-only
// hooks that used to live in internal/pool/faultpoint to the whole
// serving path: the worker pool, the checking service's handler,
// admission queue, worker fleet and explanation stage all carry points,
// and the chaos suite (internal/obshttp) injects at every one of them to
// prove the service invariants — verdicts never flip, goroutines never
// leak, every request is accounted.
//
// The points are injected functions rather than build-tagged code so the
// machinery under test is byte-for-byte the production machinery. With no
// faults installed, Hit and Check are a single atomic load — the
// production hot path pays nothing measurable.
//
// Faults can be installed programmatically (Set), or from a spec string
// for chaos runs — via the shared -faults CLI flag or the FAULT_INJECT
// environment variable (read by Init, which the CLIs call through
// cliflags). The grammar is a comma-separated list of
//
//	point=action[@trigger]
//
// where action is panic[:VALUE], delay:DURATION, or error[:MESSAGE], and
// the optional trigger is nth:N (fire only on the Nth hit), every:N
// (fire on every Nth hit), or p:F (fire with probability F, seeded
// deterministically). For example:
//
//	litmus -serve :8080 -faults 'svc.worker=panic@nth:3,pool.drain=delay:5ms@every:10'
package fault

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Named fault points compiled into the repository. Production code calls
// Hit or Check at these; tests and chaos runs install faults at them.
// Points registers them all, so a chaos sweep can iterate the set.
const (
	// PoolGo fires once per pool.Go worker at startup; the worker index
	// doubles as the item.
	PoolGo = "pool.go"
	// PoolIndexed fires in a pool.Indexed worker before each index; the
	// index is the item.
	PoolIndexed = "pool.indexed"
	// PoolDrain fires in a pool.Drain worker before each item.
	PoolDrain = "pool.drain"
	// SvcHandler fires in the POST /check handler before the body is
	// parsed; an injected error fails the whole request.
	SvcHandler = "svc.handler"
	// SvcAdmit fires at admission control, after parsing and before the
	// enqueue attempt; an injected error sheds the check.
	SvcAdmit = "svc.admit"
	// SvcEnqueue fires on the enqueue path while the admission lock is
	// held; a delay here simulates a stalled queue.
	SvcEnqueue = "svc.enqueue"
	// SvcWorker fires on a service worker as it picks up a check, before
	// the model checker runs; the request id is the item.
	SvcWorker = "svc.worker"
	// SvcExplain fires before witness explanation; an injected error
	// drops the explanation but must never change the verdict.
	SvcExplain = "svc.explain"
	// SvcCache fires on the verdict-cache path before the lookup; an
	// injected error bypasses the cache for this check (it solves
	// directly), which must never change the verdict.
	SvcCache = "svc.cache"
	// SvcDrain fires once per drain, between the admission gate closing
	// and the fleet being waited on.
	SvcDrain = "svc.drain"
)

// Points returns every named fault point in the repository, in a stable
// order — the iteration set for chaos sweeps.
func Points() []string {
	return []string{
		PoolGo, PoolIndexed, PoolDrain,
		SvcHandler, SvcAdmit, SvcEnqueue, SvcWorker, SvcExplain, SvcCache, SvcDrain,
	}
}

// ErrInjected is the error produced by an `error` action with no message
// of its own, and the error all injected errors wrap. Service code
// treats it like any other internal failure; tests match it with
// errors.Is.
var ErrInjected = injectedError{msg: "fault: injected error"}

// injectedError lets named injected errors ("error:MESSAGE") satisfy
// errors.Is(err, ErrInjected) without allocation games.
type injectedError struct{ msg string }

func (e injectedError) Error() string { return e.msg }

func (e injectedError) Is(target error) bool {
	_, ok := target.(injectedError)
	return ok
}

// Fault describes what happens when a trigger fires at a point. Exactly
// the non-zero action fields apply, in order: Fn, Delay, Err (Check
// only), Panic. The zero Fault with a hook-less trigger does nothing.
type Fault struct {
	// Fn, when non-nil, runs on the hitting goroutine with the point's
	// worker/item context — the general hook the old faultpoint package
	// exposed. Panicking inside it simulates a fault in the payload;
	// blocking inside it simulates a stall.
	Fn func(worker int, item any)
	// Delay sleeps the hitting goroutine.
	Delay time.Duration
	// Err is returned from Check when the trigger fires (Hit has no
	// error path and ignores it).
	Err error
	// Panic, when non-nil, is passed to panic().
	Panic any

	// Nth fires the fault only on the Nth hit (1-based) of the point
	// since Set. Zero means every hit.
	Nth int64
	// Every fires the fault on every Every-th hit. Zero means every hit.
	Every int64
	// Prob fires the fault with this probability per hit (0 < Prob < 1),
	// from a deterministic per-install RNG (seeded by Seed). Zero means
	// always.
	Prob float64
	// Seed seeds the probabilistic trigger; 0 uses a fixed default so
	// chaos runs are reproducible by default.
	Seed int64
}

// installed is one armed fault with its trigger state.
type installed struct {
	f    Fault
	hits atomic.Int64
	rmu  sync.Mutex
	rng  *rand.Rand
}

// fires evaluates the trigger for one hit.
func (in *installed) fires() bool {
	n := in.hits.Add(1)
	if in.f.Nth > 0 && n != in.f.Nth {
		return false
	}
	if in.f.Every > 0 && n%in.f.Every != 0 {
		return false
	}
	if in.f.Prob > 0 {
		in.rmu.Lock()
		ok := in.rng.Float64() < in.f.Prob
		in.rmu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}

var (
	active atomic.Int32
	mu     sync.Mutex
	points = map[string]*installed{}

	// observer, when set, is called on the hitting goroutine every time an
	// installed fault's trigger fires — before the action runs, so a panic
	// action cannot outrun the observation. This is the hook the incident
	// flight recorder uses to turn "a fault fired" into a capture trigger.
	observer atomic.Pointer[func(point string, worker int, item any)]
)

// SetObserver installs fn as the global fire observer: it runs once per
// fired fault (not per hit) with the point name and the hit's
// worker/item context, on the goroutine about to suffer the fault.
// Passing nil removes the observer. fn must not itself hit fault points.
// The unarmed fast path is untouched: with no faults installed, Hit and
// Check never consult the observer.
func SetObserver(fn func(point string, worker int, item any)) {
	if fn == nil {
		observer.Store(nil)
		return
	}
	observer.Store(&fn)
}

// observe notifies the observer, if any, that a fault fired at name.
func observe(name string, worker int, item any) {
	if p := observer.Load(); p != nil {
		(*p)(name, worker, item)
	}
}

// Set installs f at the named point, replacing any previous fault there
// and resetting the point's hit count. Tests should defer Clear next to
// it.
func Set(name string, f Fault) {
	seed := f.Seed
	if seed == 0 {
		seed = 1
	}
	in := &installed{f: f, rng: rand.New(rand.NewSource(seed))}
	mu.Lock()
	if _, ok := points[name]; !ok {
		active.Add(1)
	}
	points[name] = in
	mu.Unlock()
}

// Clear removes the fault at the named point; no-op when none is
// installed.
func Clear(name string) {
	mu.Lock()
	if _, ok := points[name]; ok {
		delete(points, name)
		active.Add(-1)
	}
	mu.Unlock()
}

// Reset removes every installed fault.
func Reset() {
	mu.Lock()
	for name := range points {
		delete(points, name)
		active.Add(-1)
	}
	mu.Unlock()
}

// Hits returns the number of times the named point has been hit since
// its fault was installed (0 when none is).
func Hits(name string) int64 {
	mu.Lock()
	in := points[name]
	mu.Unlock()
	if in == nil {
		return 0
	}
	return in.hits.Load()
}

// lookup returns the installed fault at name, or nil. The caller must
// have observed active != 0.
func lookup(name string) *installed {
	mu.Lock()
	in := points[name]
	mu.Unlock()
	return in
}

// Armed reports whether any fault is installed anywhere. A hot path can
// test it before calling Hit, so that with no faults installed it does
// not even box the item it would pass.
func Armed() bool { return active.Load() != 0 }

// Hit fires the fault installed at name, if any: the hook runs, the
// delay sleeps, and a panic action panics — all on the calling
// goroutine. Points with no error path use Hit; an installed Err is
// ignored here. With no faults installed anywhere, Hit is one atomic
// load.
func Hit(name string, worker int, item any) {
	if active.Load() == 0 {
		return
	}
	in := lookup(name)
	if in == nil || !in.fires() {
		return
	}
	observe(name, worker, item)
	if in.f.Fn != nil {
		in.f.Fn(worker, item)
	}
	if in.f.Delay > 0 {
		time.Sleep(in.f.Delay)
	}
	if in.f.Panic != nil {
		panic(in.f.Panic)
	}
}

// Check is Hit for points that can surface an injected error: it
// additionally returns the fault's Err when the trigger fires. With no
// faults installed anywhere, Check is one atomic load.
func Check(name string, worker int, item any) error {
	if active.Load() == 0 {
		return nil
	}
	in := lookup(name)
	if in == nil || !in.fires() {
		return nil
	}
	observe(name, worker, item)
	if in.f.Fn != nil {
		in.f.Fn(worker, item)
	}
	if in.f.Delay > 0 {
		time.Sleep(in.f.Delay)
	}
	if in.f.Panic != nil {
		panic(in.f.Panic)
	}
	return in.f.Err
}

// Apply parses a chaos spec (see the package comment for the grammar)
// and installs every fault it names. Point names are validated against
// Points(); an error leaves previously parsed entries of the same spec
// installed.
func Apply(spec string) error {
	known := map[string]bool{}
	for _, p := range Points() {
		known[p] = true
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("fault: bad spec entry %q: want point=action[@trigger]", entry)
		}
		if !known[name] {
			return fmt.Errorf("fault: unknown point %q (have %v)", name, Points())
		}
		actionSpec, triggerSpec, _ := strings.Cut(rest, "@")
		f, err := parseAction(actionSpec)
		if err != nil {
			return fmt.Errorf("fault: %s: %w", name, err)
		}
		if triggerSpec != "" {
			if err := parseTrigger(triggerSpec, &f); err != nil {
				return fmt.Errorf("fault: %s: %w", name, err)
			}
		}
		Set(name, f)
	}
	return nil
}

// parseAction decodes panic[:VALUE] | delay:DURATION | error[:MESSAGE].
func parseAction(spec string) (Fault, error) {
	kind, arg, hasArg := strings.Cut(spec, ":")
	switch kind {
	case "panic":
		if !hasArg || arg == "" {
			arg = "fault: injected panic"
		}
		return Fault{Panic: arg}, nil
	case "delay":
		if !hasArg {
			return Fault{}, fmt.Errorf("bad action %q: delay needs a duration", spec)
		}
		d, err := time.ParseDuration(arg)
		if err != nil {
			return Fault{}, fmt.Errorf("bad action %q: %v", spec, err)
		}
		return Fault{Delay: d}, nil
	case "error":
		if !hasArg || arg == "" {
			return Fault{Err: ErrInjected}, nil
		}
		return Fault{Err: injectedError{msg: "fault: " + arg}}, nil
	}
	return Fault{}, fmt.Errorf("bad action %q: want panic[:VALUE], delay:DURATION or error[:MESSAGE]", spec)
}

// parseTrigger decodes nth:N | every:N | p:F into f.
func parseTrigger(spec string, f *Fault) error {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return fmt.Errorf("bad trigger %q: want nth:N, every:N or p:F", spec)
	}
	switch kind {
	case "nth":
		n, err := strconv.ParseInt(arg, 10, 64)
		if err != nil || n < 1 {
			return fmt.Errorf("bad trigger %q: nth wants a positive integer", spec)
		}
		f.Nth = n
	case "every":
		n, err := strconv.ParseInt(arg, 10, 64)
		if err != nil || n < 1 {
			return fmt.Errorf("bad trigger %q: every wants a positive integer", spec)
		}
		f.Every = n
	case "p":
		p, err := strconv.ParseFloat(arg, 64)
		if err != nil || p <= 0 || p > 1 {
			return fmt.Errorf("bad trigger %q: p wants a probability in (0,1]", spec)
		}
		f.Prob = p
	default:
		return fmt.Errorf("bad trigger %q: want nth:N, every:N or p:F", spec)
	}
	return nil
}

// Init arms faults from the FAULT_INJECT environment variable, for chaos
// runs of binaries that take no -faults flag. It is called by
// cliflags.Setup; calling it with the variable unset is a no-op.
func Init() error {
	spec := os.Getenv("FAULT_INJECT")
	if spec == "" {
		return nil
	}
	return Apply(spec)
}
