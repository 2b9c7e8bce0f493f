package sim

import (
	"math/rand"

	"repro/history"
)

// RandomRunConfig controls RandomRun.
type RandomRunConfig struct {
	// Ops is the total number of read/write operations to execute.
	Ops int
	// MaxWrites caps the number of writes (checker enumeration cost
	// grows with write count); once reached, only reads are issued.
	MaxWrites int
	// DataLocs are the ordinary locations; SyncLocs, if any, are
	// accessed exclusively with labeled operations (acquire/release),
	// preserving the synchronization/data separation RC assumes.
	DataLocs []history.Loc
	SyncLocs []history.Loc
	// PInternal is the probability of performing an enabled internal
	// action (delivery, drain) instead of a program operation at each
	// step.
	PInternal float64
	// DrainAtEnd, if set, performs every remaining internal action after
	// the last program operation, so the run quiesces.
	DrainAtEnd bool
}

// RandomRun drives the memory with a random but reproducible workload:
// random processors issue random reads and writes over the configured
// locations while internal actions fire with probability PInternal. It
// returns the recorded tagged history. RandomRun is the workhorse of the
// simulator-versus-checker cross-validation tests and benchmarks: every
// history a simulator produces must be accepted by the corresponding
// checker.
func RandomRun(mem Memory, rng *rand.Rand, cfg RandomRunConfig) *history.System {
	if cfg.Ops <= 0 {
		cfg.Ops = 8
	}
	if cfg.MaxWrites <= 0 {
		cfg.MaxWrites = 5
	}
	if len(cfg.DataLocs) == 0 && len(cfg.SyncLocs) == 0 {
		cfg.DataLocs = []history.Loc{"x", "y"}
	}
	writes := 0
	for done := 0; done < cfg.Ops; {
		if acts := mem.NumInternal(); acts > 0 && rng.Float64() < cfg.PInternal {
			mem.Step(rng.Intn(acts))
			continue
		}
		p := history.Proc(rng.Intn(mem.NumProcs()))
		labeled := false
		var loc history.Loc
		if n := len(cfg.SyncLocs); n > 0 && (len(cfg.DataLocs) == 0 || rng.Intn(2) == 0) {
			loc = cfg.SyncLocs[rng.Intn(n)]
			labeled = true
		} else {
			loc = cfg.DataLocs[rng.Intn(len(cfg.DataLocs))]
		}
		if writes < cfg.MaxWrites && rng.Intn(2) == 0 {
			mem.Write(p, loc, history.Value(rng.Intn(3)+1), labeled)
			writes++
		} else {
			mem.Read(p, loc, labeled)
		}
		done++
	}
	if cfg.DrainAtEnd {
		Quiesce(mem)
	}
	return mem.Recorder().System()
}

// Quiesce performs internal actions until none remain. Every simulator in
// this package quiesces: deliveries and drains strictly shrink the pending
// work.
func Quiesce(mem Memory) {
	for mem.NumInternal() > 0 {
		mem.Step(0)
	}
}

// Memories returns one fresh instance of every simulator for nprocs
// processors, keyed for iteration in tests, benchmarks and examples.
func Memories(nprocs int) []Memory {
	return []Memory{
		NewSC(nprocs),
		NewTSO(nprocs),
		NewTSONoForward(nprocs),
		NewPRAM(nprocs),
		NewPCG(nprocs),
		NewCausal(nprocs),
		NewRCsc(nprocs),
		NewRCpc(nprocs),
		NewSlow(nprocs),
	}
}
