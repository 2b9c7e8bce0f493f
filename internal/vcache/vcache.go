// Package vcache is the content-addressed verdict cache behind the
// checking service: histories are reduced to their canonical form
// (history.Canonicalize), the canonical encoding plus the model name and
// route mode are hashed to a key, and decided verdicts — witnesses in
// canonical labels — are stored under it, so every history in the same
// isomorphism class costs one NP-hard solve. The cache is bounded (LRU),
// single-flighted (concurrent lookups of one key share a solve), and
// instrumented in the obs registry:
//
//	vcache.lookups     every Do call
//	vcache.hits        answered without initiating a solve (LRU or a
//	                   shared in-flight solve); hits + misses == lookups
//	vcache.misses      a solve was initiated (or a collision forced one)
//	vcache.coalesced   the subset of hits that joined an in-flight solve
//	vcache.evictions   entries dropped by the LRU bound
//	vcache.collisions  a key whose stored encoding differs from the
//	                   caller's — never served, always re-solved
//	vcache.entries     (gauge) resident entries
//
// Unknown verdicts are never cached: a budget-starved answer must not mask
// the full solve a later, better-funded request could complete.
//
// There is one way through the cache, CheckCanonical: key the canonical
// history, answer through Do (solving on a miss), audit hits, and relabel
// the verdict back to the caller's history. Check is canonicalization plus
// that core with model.AllowsCtx as the solve, for in-process callers
// (litmus, perfbench); the checking service canonicalizes itself and hands
// the core a solve that runs on its worker fleet.
package vcache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/history"
	"repro/internal/obs"
	"repro/model"
)

// Key is the cache key: SHA-256 over the canonical history encoding, the
// model name, and the route mode, NUL-separated.
type Key [sha256.Size]byte

// KeyFor computes the key for a canonical encoding checked under the named
// model and route.
func KeyFor(enc, modelName, route string) Key {
	h := sha256.New()
	h.Write([]byte(enc))
	h.Write([]byte{0})
	h.Write([]byte(modelName))
	h.Write([]byte{0})
	h.Write([]byte(route))
	var k Key
	h.Sum(k[:0])
	return k
}

// entry is one cached decided verdict. The encoding is kept so a hash
// collision (a different history mapping to the same key) is detected and
// never served.
type entry struct {
	key Key
	enc string
	v   model.Verdict
}

// flight is one in-progress solve that concurrent lookups of the same key
// share. The solve completes (and populates the cache) even if every
// waiter gives up: when the initiating caller's wait can be cut short, it
// runs on its own goroutine.
type flight struct {
	enc  string
	done chan struct{}
	v    model.Verdict
	err  error
}

// Cache is a bounded, single-flighted, content-addressed verdict cache.
// The zero value is not usable; call New. A nil *Cache is inert: Do solves
// directly.
type Cache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recent; values are *entry
	entries map[Key]*list.Element
	flights map[Key]*flight

	// OnDivergence, when set (before traffic flows), is called from an
	// audit goroutine when a cache-hit audit's fresh solve decides
	// differently than the served verdict — a poisoned entry, a hash
	// collision the encoding guard missed, or a solver bug. The incident
	// layer uses it as a capture trigger.
	OnDivergence func(modelName, enc string, cached, fresh model.Verdict)

	auditEvery atomic.Int64
	auditSeq   atomic.Int64
	auditWG    sync.WaitGroup

	lookups, hits, misses, coalesced, evictions, collisions *obs.Counter
	audits, divergences                                     *obs.Counter
	entriesG                                                *obs.Gauge
}

// New returns a Cache holding at most size entries, instrumented in reg
// (nil-safe: a nil registry disables the counters, not the cache). A size
// <= 0 disables storage but keeps single-flight coalescing.
func New(size int, reg *obs.Registry) *Cache {
	return &Cache{
		cap:         size,
		lru:         list.New(),
		entries:     make(map[Key]*list.Element),
		flights:     make(map[Key]*flight),
		lookups:     reg.Counter("vcache.lookups"),
		hits:        reg.Counter("vcache.hits"),
		misses:      reg.Counter("vcache.misses"),
		coalesced:   reg.Counter("vcache.coalesced"),
		evictions:   reg.Counter("vcache.evictions"),
		collisions:  reg.Counter("vcache.collisions"),
		audits:      reg.Counter("vcache.audits"),
		divergences: reg.Counter("vcache.audit_divergences"),
		entriesG:    reg.Gauge("vcache.entries"),
	}
}

// SetAuditEvery arms the cache-hit audit: every n-th LRU hit (counted
// across all keys) is re-solved in the background and compared against
// the verdict the cache served. n <= 0 disables auditing (the default).
// Audits count into vcache.audits; disagreements into
// vcache.audit_divergences and the OnDivergence callback.
func (c *Cache) SetAuditEvery(n int64) {
	if c == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	c.auditEvery.Store(n)
}

// MaybeAudit spends one hit against the audit cadence and, when due,
// re-solves the canonical history on a background goroutine and compares
// the fresh verdict with the served one. cached must be the verdict in
// canonical labels (as stored), canon the canonical history. The audit
// detaches from the caller's cancellation (the request finishing must not
// abort its own audit) and from its event sink (the audit outlives the
// request, so its engine events do not belong in the request's trace),
// but keeps the context's other values — route and budget still apply, so
// an audit is bounded exactly like the solve it checks, and its spans
// still fold into the registry. Returns true when an audit was started.
func (c *Cache) MaybeAudit(ctx context.Context, m model.Model, canon *history.System, enc string, cached model.Verdict) bool {
	if c == nil {
		return false
	}
	every := c.auditEvery.Load()
	if every <= 0 || c.auditSeq.Add(1)%every != 0 {
		return false
	}
	c.audits.Add(1)
	actx := obs.WithSink(context.WithoutCancel(ctx), nil)
	c.auditWG.Add(1)
	go func() {
		defer c.auditWG.Done()
		fresh, err := model.AllowsCtx(actx, m, canon)
		if err != nil || !fresh.Decided() || !cached.Decided() {
			return // an unbounded answer is no evidence either way
		}
		if fresh.Allowed == cached.Allowed {
			return
		}
		c.divergences.Add(1)
		if f := c.OnDivergence; f != nil {
			f(m.Name(), enc, cached, fresh)
		}
	}()
	return true
}

// WaitAudits blocks until every in-flight audit has finished — shutdown
// and test hygiene (the goroutine-leak checks run after it).
func (c *Cache) WaitAudits() {
	if c != nil {
		c.auditWG.Wait()
	}
}

// Stats is a point-in-time snapshot of the cache counters (the same
// values the obs registry exports as vcache.*). Built from nil-safe
// counter reads, so a cache created with a nil registry reports zeros.
type Stats struct {
	Lookups, Hits, Misses, Coalesced, Evictions, Collisions, Entries int64
	Audits, Divergences                                              int64
}

// Stats snapshots the counters. The fields are read individually, not
// under one lock; the hits+misses==lookups invariant holds exactly only
// when no lookup is concurrently in progress.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Lookups:     c.lookups.Value(),
		Hits:        c.hits.Value(),
		Misses:      c.misses.Value(),
		Coalesced:   c.coalesced.Value(),
		Evictions:   c.evictions.Value(),
		Collisions:  c.collisions.Value(),
		Entries:     c.entriesG.Value(),
		Audits:      c.audits.Value(),
		Divergences: c.divergences.Value(),
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Do answers the check identified by (k, enc) — enc must be the canonical
// encoding k was derived from. A cached decided verdict is returned
// immediately; otherwise the first caller initiates solve and concurrent
// callers of the same key wait for it. hit reports whether this caller was
// answered without initiating a solve. The caller's context bounds only
// its wait: an initiated solve runs to completion and populates the cache
// even if ctx expires first. So a caller whose context can be done
// (ctx.Done() is not nil) starts solve on its own goroutine and waits for
// it or for ctx, whichever comes first; a caller whose context can never
// be done has no wait to bound, and runs solve itself, on the calling
// goroutine. Either way a panicking solve is contained and reported as an
// error, to the initiating caller and to every waiter. Decided verdicts
// are cached; Unknown verdicts and solve errors are not.
//
// A hit reports the work it did, which is none: its verdict's work
// counters (Progress.Candidates and Progress.Nodes) are zero, whether it
// was served from the cache or by waiting on another caller's solve.
// Everything that describes the verdict — Allowed, Witness, Unknown and
// Progress.Frontier — is the cached verdict's. Witnesses returned from a
// hit are shared structure — callers must treat them as immutable
// (model.RelabelWitness copies, so the usual relabel step already does).
func (c *Cache) Do(ctx context.Context, k Key, enc string, solve func() (model.Verdict, error)) (v model.Verdict, hit bool, err error) {
	if c == nil {
		v, err = solve()
		return v, false, err
	}
	// The lookup span covers the keyed probe up to its outcome (hit,
	// collision, coalesce, miss); the coalesce span covers a waiter's
	// time on someone else's flight; the solve span brackets the detached
	// solve itself. All nest under whatever span ctx carries — the
	// service's request tree, or litmus's per-check span.
	look := obs.LeafSpan(ctx, "cache.lookup")
	c.lookups.Add(1)
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		e := el.Value.(*entry)
		if e.enc == enc {
			c.lru.MoveToFront(el)
			v = e.v
			c.mu.Unlock()
			c.hits.Add(1)
			look.Attr("outcome", "hit")
			look.End()
			return hitVerdict(v), true, nil
		}
		// A different history hashed to this key. Never serve it; solve
		// directly without disturbing the resident entry or its flights.
		c.mu.Unlock()
		c.collisions.Add(1)
		c.misses.Add(1)
		look.Attr("outcome", "collision")
		look.End()
		v, err = solve()
		return v, false, err
	}
	if f, ok := c.flights[k]; ok {
		if f.enc != enc {
			c.mu.Unlock()
			c.collisions.Add(1)
			c.misses.Add(1)
			look.Attr("outcome", "collision")
			look.End()
			v, err = solve()
			return v, false, err
		}
		c.mu.Unlock()
		c.hits.Add(1)
		c.coalesced.Add(1)
		look.Attr("outcome", "coalesce")
		look.End()
		co := obs.LeafSpan(ctx, "cache.coalesce")
		select {
		case <-f.done:
			co.End()
			return hitVerdict(f.v), true, f.err
		case <-ctx.Done():
			co.End()
			return model.Verdict{}, true, ctx.Err()
		}
	}
	f := &flight{enc: enc, done: make(chan struct{})}
	c.flights[k] = f
	c.mu.Unlock()
	c.misses.Add(1)
	look.Attr("outcome", "miss")
	look.End()
	// The solve span is created by the initiating caller but may end on
	// the detached goroutine — spans only reference their sink and
	// registry, never the context, so outliving ctx is safe.
	solveSp := obs.LeafSpan(ctx, "cache.solve")
	if ctx.Done() == nil {
		c.fly(f, k, enc, solve, solveSp)
		return f.v, false, f.err
	}
	go c.fly(f, k, enc, solve, solveSp)
	select {
	case <-f.done:
		return f.v, false, f.err
	case <-ctx.Done():
		return model.Verdict{}, false, ctx.Err()
	}
}

// fly runs flight f's solve of key k, containing a panic as f's error,
// then retires the flight: it caches a decided verdict, ends the solve
// span and releases the waiters.
func (c *Cache) fly(f *flight, k Key, enc string, solve func() (model.Verdict, error), sp *obs.Span) {
	defer func() {
		if r := recover(); r != nil {
			f.err = fmt.Errorf("vcache: solve panicked: %v", r)
		}
		c.mu.Lock()
		delete(c.flights, k)
		if f.err == nil && f.v.Decided() {
			c.putLocked(k, enc, f.v)
		}
		c.mu.Unlock()
		sp.End()
		close(f.done)
	}()
	f.v, f.err = solve()
}

// hitVerdict is v as a hit returns it: with the work counters of the solve
// that decided it zeroed, since serving it solved nothing.
func hitVerdict(v model.Verdict) model.Verdict {
	v.Progress.Candidates, v.Progress.Nodes = 0, 0
	return v
}

// putLocked stores a decided verdict, evicting from the LRU tail to stay
// within capacity. Callers hold c.mu.
func (c *Cache) putLocked(k Key, enc string, v model.Verdict) {
	if c.cap <= 0 {
		return
	}
	if el, ok := c.entries[k]; ok {
		el.Value.(*entry).v = v
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.cap {
		old := c.lru.Back()
		oe := old.Value.(*entry)
		c.lru.Remove(old)
		delete(c.entries, oe.key)
		c.evictions.Add(1)
	}
	c.entries[k] = c.lru.PushFront(&entry{key: k, enc: enc, v: v})
	c.entriesG.Set(int64(c.lru.Len()))
}

// Check decides m on s through the cache: canonicalize, then
// CheckCanonical with a solve that runs model.AllowsCtx on the canonical
// form, so the cached witness is in canonical labels. When the cache is
// nil or the history defeats canonicalization (an oversized symmetry
// class), the check falls through to a plain AllowsCtx — caching is an
// optimization, never a prerequisite. hit is as in Do.
func Check(ctx context.Context, c *Cache, m model.Model, s *history.System) (model.Verdict, bool, error) {
	if c == nil {
		v, err := model.AllowsCtx(ctx, m, s)
		return v, false, err
	}
	cs := obs.LeafSpan(ctx, "canonicalize")
	canon, ren, err := history.Canonicalize(s)
	cs.End()
	if err != nil {
		v, err := model.AllowsCtx(ctx, m, s)
		return v, false, err
	}
	return CheckCanonical(ctx, c, m, canon, ren, func() (model.Verdict, error) {
		return model.AllowsCtx(ctx, m, canon)
	})
}

// CheckCanonical is the cache's core, shared by Check and the checking
// service: canon is a history in canonical form, ren the renaming that
// maps it back to the caller's labels, and solve decides m on canon
// however the caller decides checks. It keys canon under m and the
// context's route, answers through Do (solve runs on a miss), spends a hit
// against the audit cadence (MaybeAudit, under ctx's route and budget),
// and maps the verdict's witness back through ren. hit is as in Do; on an
// error the verdict is Do's, unrelabeled.
func CheckCanonical(ctx context.Context, c *Cache, m model.Model, canon *history.System, ren *history.Renaming, solve func() (model.Verdict, error)) (model.Verdict, bool, error) {
	enc := history.Format(canon)
	v, hit, err := c.Do(ctx, KeyFor(enc, m.Name(), model.RouteFromContext(ctx).String()), enc, solve)
	if err != nil {
		return v, hit, err
	}
	if hit {
		c.MaybeAudit(ctx, m, canon, enc, v)
	}
	return model.RelabelVerdict(v, ren), hit, nil
}

type ctxKey struct{}

// WithCache attaches c to the context so cache-aware call sites deep in
// the stack (litmus.RunCtx) check through it. A nil cache detaches.
func WithCache(ctx context.Context, c *Cache) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext returns the cache attached by WithCache, or nil.
func FromContext(ctx context.Context) *Cache {
	c, _ := ctx.Value(ctxKey{}).(*Cache)
	return c
}
