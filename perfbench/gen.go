package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/history"
	"repro/litmus"
	"repro/model"
	"repro/sim"
)

// splitmix is a splitmix64 rand.Source64: cheap to seed, so every request
// can draw from its own stream and any request is reproducible alone.
type splitmix struct{ s uint64 }

func (r *splitmix) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) Int63() int64    { return int64(r.Uint64() >> 1) }
func (r *splitmix) Seed(seed int64) { r.s = uint64(seed) }

// streamRand returns the generator for item i of a named stream under the
// run's seed. Streams keep phases independent: the inputs of the
// fixed-rate phase do not depend on how many capacity probes ran.
func streamRand(seed int64, stream string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return rand.New(&splitmix{s: h.Sum64()})
}

// schedule returns Poisson arrival offsets at rate per second over d,
// drawn from the stream's own generator.
func schedule(seed int64, stream string, rate float64, d time.Duration) []time.Duration {
	rng := streamRand(seed, stream+"/arrivals", 0)
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return due
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
}

// request is one POST /check as sent: the body, and what the oracle needs
// to judge the answer.
type request struct {
	id    string
	body  []byte
	model string
	// pair indexes the (corpus test, model) pair a relabel-hits request
	// was drawn from; -1 on fresh-misses.
	pair int
}

// checkBody is the POST /check body the benchmark sends.
type checkBody struct {
	History string `json:"history"`
	Model   string `json:"model"`
}

func newRequest(id, hist, modelName string, pair int) request {
	body, err := json.Marshal(checkBody{hist, modelName})
	if err != nil {
		panic(err) // two strings always marshal
	}
	return request{id: id, body: body, model: modelName, pair: pair}
}

// history returns the history text the request carries. Only the body is
// kept, so the inputs a phase holds in memory weigh as little as they can
// on the garbage collector the server shares.
func (r *request) history() string {
	var b checkBody
	if err := json.Unmarshal(r.body, &b); err != nil {
		panic(err) // newRequest marshalled it
	}
	return b.History
}

// pairs is the relabel-hits base set: every corpus history under every
// model, 22 x 14 = 308 checks.
type pair struct {
	test  litmus.Test
	model model.Model
}

func corpusPairs() []pair {
	var ps []pair
	for _, t := range litmus.Corpus() {
		for _, m := range model.All() {
			ps = append(ps, pair{t, m})
		}
	}
	return ps
}

// workload describes one service workload: how a request is drawn, the
// fixed warm-up pass, the rate of the fixed-rate phase and the latency
// limit a check must meet.
type workload struct {
	limit time.Duration
	rate  float64
	pairs []pair
	// probeChecks is the size of one capacity probe: about a second's
	// worth at the service's capacity.
	probeChecks int
	// engineChecks is the size of the in-process engine pass (explore_s).
	engineChecks int
	// draw builds a request of a stream from its own generator; turn is
	// its place in the stream's deal (see stream).
	draw func(rng *rand.Rand, turn int, id string) (request, error)
	// warmup is the fixed pass set-up sends before anything is timed.
	warmup func() ([]request, error)
}

// fixedSeed draws the passes that are the same under every seed: the
// warm-up pass timed in set-up, the engine pass behind explore_s and the
// capacity probes. Their cost is then a property of the program, not of
// the inputs a seed drew.
const fixedSeed = 0

// tierBudget is the default admission tier's work cap, the budget the
// service solves under; the oracle uses it too, without the deadline.
var tierBudget = model.Budget{MaxCandidates: 1 << 16, MaxNodes: 1 << 20}

func budgetCtx(ctx context.Context) context.Context { return model.WithBudget(ctx, tierBudget) }

const (
	freshOps       = 24
	freshProcs     = 4
	freshMaxWrites = 10
)

var freshLocs = []history.Loc{"x", "y", "z"}

func relabelHits() *workload {
	ps := corpusPairs()
	models := model.All()
	tests := litmus.Corpus()
	return &workload{
		limit:        50 * time.Millisecond,
		rate:         1000,
		probeChecks:  6000,
		pairs:        ps,
		engineChecks: 6000,
		draw: func(rng *rand.Rand, _ int, id string) (request, error) {
			ti, mi := rng.Intn(len(tests)), rng.Intn(len(models))
			s, err := history.RelabelRandom(tests[ti].History, rng)
			if err != nil {
				return request{}, fmt.Errorf("relabel %s: %w", tests[ti].Name, err)
			}
			return newRequest(id, s.String(), models[mi].Name(), ti*len(models)+mi), nil
		},
		warmup: func() ([]request, error) {
			reqs := make([]request, len(ps))
			for i, p := range ps {
				reqs[i] = newRequest(fmt.Sprintf("w%d", i), p.test.History.String(), p.model.Name(), i)
			}
			return reqs, nil
		},
	}
}

func freshMisses() *workload {
	models := model.All()
	w := &workload{
		limit:        100 * time.Millisecond,
		rate:         100,
		probeChecks:  1200,
		engineChecks: 400,
		// The model and the simulator are dealt, not drawn, so every run
		// of consecutive checks holds the same mix of them: a few models
		// make most of the slow solves.
		draw: func(rng *rand.Rand, turn int, id string) (request, error) {
			mems := sim.Memories(freshProcs)
			mem := mems[turn/len(models)%len(mems)]
			s := sim.RandomRun(mem, rng, sim.RandomRunConfig{
				Ops: freshOps, MaxWrites: freshMaxWrites, DataLocs: freshLocs,
				PInternal: 0.5, DrainAtEnd: true,
			})
			return newRequest(id, s.String(), models[turn%len(models)].Name(), -1), nil
		},
	}
	w.warmup = func() ([]request, error) { return w.stream(fixedSeed, "warmup", 200) }
	return w
}

// stream draws n requests of a named stream. Request i takes turn deal+i
// of the workload's deal, deal being drawn from the stream's seed.
func (w *workload) stream(seed int64, name string, n int) ([]request, error) {
	reqs := make([]request, n)
	deal := streamRand(seed, name+"/deal", 0).Intn(1 << 30)
	for i := range reqs {
		r, err := w.draw(streamRand(seed, name, i), deal+i, fmt.Sprintf("%s.%d", name, i))
		if err != nil {
			return nil, err
		}
		reqs[i] = r
	}
	return reqs, nil
}

// relabeledStream draws n requests of a named stream from fixedSeed and
// relabels each history under the run's seed: the seed sets the labels,
// so every request is new text, but not the histories' shapes. The
// service canonicalizes before it solves, so its solvers get the same
// work under every seed. Drawn afresh, the fixed-rate windows' p90 and CPU
// per check moved by up to a tenth between seeds on a steady host, set by
// the few hundred checks in the solvers' heavy tail.
func (w *workload) relabeledStream(seed int64, name string, n int) ([]request, error) {
	reqs, err := w.stream(fixedSeed, name, n)
	if err != nil {
		return nil, err
	}
	for i := range reqs {
		r := &reqs[i]
		s, err := history.Parse(r.history())
		if err != nil {
			return nil, err
		}
		if s, err = history.RelabelRandom(s, streamRand(seed, name+"/relabel", i)); err != nil {
			return nil, fmt.Errorf("relabel %s: %w", r.id, err)
		}
		*r = newRequest(r.id, s.String(), r.model, r.pair)
	}
	return reqs, nil
}

// serviceWorkload resolves a service workload by name.
func serviceWorkload(name string) (*workload, bool) {
	switch name {
	case "relabel-hits":
		return relabelHits(), true
	case "fresh-misses":
		return freshMisses(), true
	}
	return nil, false
}
