package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/escape"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// A grid rep runs in a child process so the parent can bound every point's
// wall time and kill a stuck engine. The child writes one JSON event per
// line on stdout: "start" and "done" per point, then one "end".
type event struct {
	Kind  string  `json:"kind"`
	Index int     `json:"index"`
	Secs  float64 `json:"secs,omitempty"`
	// Result is the point's sim.Result codec bytes (AppendBinary).
	Result []byte  `json:"result,omitempty"`
	Err    string  `json:"err,omitempty"`
	End    *repEnd `json:"end,omitempty"`
}

// repEnd closes a rep. Setup reps fill SetupSecs only, grid reps the rest.
type repEnd struct {
	WallSecs  float64   `json:"wallSecs"`
	SetupSecs []float64 `json:"setupSecs,omitempty"`
	// Layers and Spans come from traced reps only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

type emitter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func (e *emitter) emit(ev event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.enc.Encode(ev); err != nil {
		// The parent is gone or the pipe broke; nothing is left to report to.
		os.Exit(3)
	}
}

// configureEngine selects the execution settings of the CLIs' defaults:
// adaptive intra-run workers, activity tracking on, geometric generation.
func configureEngine() {
	experiments.SetAdaptiveRunWorkers()
	experiments.SetEngineActivity(true)
	sim.SetLegacyGeneration(false)
}

// runGridRep executes the workload's grid once through experiments.
// ExecuteJobs with a fresh result cache in cacheDir. Untraced, the store is
// installed as the CLIs install it and an executor hook times each
// (*JobSpec).Run. Traced, the hook performs the cache lookup and the run
// itself through each layer's public functions, recording spans.
func runGridRep(w io.Writer, wl workload, seed uint64, traced bool, cacheDir string) error {
	specs, err := wl.specs(seed)
	if err != nil {
		return err
	}
	store, err := cache.Open(cacheDir)
	if err != nil {
		return err
	}
	configureEngine()
	index := make(map[*experiments.JobSpec]int, len(specs))
	for i := range specs {
		index[&specs[i]] = i
	}
	out := &emitter{enc: json.NewEncoder(w)}
	var tracing *tracedRun
	run := (*experiments.JobSpec).Run
	if traced {
		tracing = &tracedRun{tr: newTracer(), store: store}
		experiments.SetResultCache(nil)
		run = tracing.point
	} else {
		experiments.SetResultCache(store)
	}
	defer experiments.SetResultCache(nil)
	experiments.SetExecutor(func(s *experiments.JobSpec) (*sim.Result, error) {
		i := index[s]
		out.emit(event{Kind: "start", Index: i})
		t0 := time.Now()
		res, err := run(s)
		ev := event{Kind: "done", Index: i, Secs: time.Since(t0).Seconds()}
		if err != nil {
			ev.Err = err.Error()
		} else {
			ev.Result = res.AppendBinary(nil)
		}
		out.emit(ev)
		return res, err
	})
	defer experiments.SetExecutor(nil)

	if traced {
		tracing.grid = tracing.tr.begin("experiments.grid", "", 0)
	}
	t0 := time.Now()
	// A failing point fails the grid; the parent learns which from the
	// point's own event, so the joined error adds nothing.
	_, _ = experiments.ExecuteJobs(wl.pool, specs)
	end := &repEnd{WallSecs: time.Since(t0).Seconds()}
	if traced {
		tracing.tr.end(tracing.grid)
		if err := tracing.escapeBuilds(specs); err != nil {
			return err
		}
		end.Spans = tracing.tr.snapshot()
		end.Layers = tracing.layers(end.Spans, wl.pool, end.WallSecs)
	}
	out.emit(event{Kind: "end", End: end})
	return nil
}

// tracedRun holds what a traced rep gathers besides spans: the routing
// counters and the engine's per-point memory and work figures.
type tracedRun struct {
	tr    *tracer
	store *cache.Store
	grid  int // span ID of the grid, the parent of every point span

	mu                       sync.Mutex
	calls, results, rebuilds int64
	arenaMax, stagingMax     int64
	cycles, switchCycles     int64
	delivered                int64
	escaped                  float64
}

func (r *tracedRun) note(switches int, res *sim.Result, mem sim.MemStats, c *layerCounters) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls += c.candidateCalls.Load()
	r.results += c.candidateResults.Load()
	r.rebuilds += c.rebuilds.Load()
	r.arenaMax = max(r.arenaMax, mem.ArenaBytes)
	r.stagingMax = max(r.stagingMax, mem.PeakStagingBytes)
	r.cycles += res.Cycles
	r.switchCycles += int64(switches) * res.Cycles
	r.delivered += res.DeliveredPackets
	r.escaped += res.EscapeFraction * float64(res.DeliveredPackets)
}

// point is the traced equivalent of the result-cache lookup plus
// (*JobSpec).Run: the same construction through the public layer entry
// points, with every call timed as a child span of the point.
func (r *tracedRun) point(s *experiments.JobSpec) (*sim.Result, error) {
	tr := r.tr
	key := s.Hash()
	point := tr.begin("point", key, r.grid)
	defer tr.end(point)
	call := func(name string, fn func() error) error {
		id := tr.begin(name, key, point)
		defer tr.end(id)
		return fn()
	}
	var hit *sim.Result
	_ = call("cache.get", func() error {
		if res, ok, err := r.store.Get(key); err == nil && ok {
			hit = res
		}
		return nil // a failed lookup is a miss, as in the runner
	})
	if hit != nil {
		return hit, nil
	}
	var (
		t   topo.Switched
		nw  *topo.Network
		pat traffic.Pattern
	)
	err := call("topo.build", func() error {
		var err error
		if t, err = s.Topo.Build(); err == nil {
			nw = topo.NewNetwork(t, topo.NewFaultSet(s.Faults...))
		}
		return err
	})
	if err == nil {
		err = call("traffic.build", func() error {
			var err error
			pat, err = buildPattern(s, t)
			return err
		})
	}
	mech := &countingMechanism{tr: tr, point: key}
	if err == nil {
		err = call("routing.build", func() error {
			var err error
			mech.Mechanism, err = experiments.BuildMechanism(s.Mechanism, nw, s.VCs, s.Root)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	var mem sim.MemStats
	o := sim.RunOptions{
		Net:              nw,
		ServersPerSwitch: s.Per,
		Mechanism:        mech,
		Pattern:          pat,
		Load:             s.Load,
		WarmupCycles:     s.Budget.Warmup,
		MeasureCycles:    s.Budget.Measure,
		BurstPackets:     s.BurstPackets,
		SeriesBucket:     s.SeriesBucket,
		MaxCycles:        s.MaxCycles,
		FaultSchedule:    s.FaultSchedule,
		Seed:             s.Seed,
		Workers:          experiments.RunWorkersFor(t.Switches()),
		DisableActivity:  experiments.EngineActivityDisabled(),
		LegacyGeneration: sim.LegacyGenerationDefault(),
		MemStats:         &mem,
	}
	runStart := time.Now()
	simRun := tr.begin("sim.run", key, point)
	mech.parent = simRun
	res, err := sim.Run(o)
	tr.end(simRun)
	if err != nil {
		return nil, err
	}
	// Construction is the first thing sim.Run does.
	tr.add("sim.construct", key, simRun, runStart, time.Duration(mem.ConstructNanos))
	r.note(t.Switches(), res, mem, &mech.c)
	_ = call("cache.put", func() error {
		return r.store.Put(key, res) // best effort, as the runner does
	})
	return res, nil
}

// escapeBuilds times escape.Build, the escape-subnetwork construction
// that BuildMechanism performs inside routing.build for every SurePath
// point, once more on its own. It runs after the grid so that the traced
// grid does no work the untraced one does not.
func (r *tracedRun) escapeBuilds(specs []experiments.JobSpec) error {
	for i := range specs {
		s := &specs[i]
		if !slices.Contains(experiments.SurePathNames(), s.Mechanism) {
			continue
		}
		t, err := s.Topo.Build()
		if err != nil {
			return err
		}
		nw := topo.NewNetwork(t, topo.NewFaultSet(s.Faults...))
		id := r.tr.begin("escape.build", s.Hash(), 0)
		_, err = escape.Build(nw, s.Root)
		r.tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// buildPattern mirrors the spec's own pattern construction: HyperX takes
// every named pattern, other topologies only Uniform.
func buildPattern(s *experiments.JobSpec, t topo.Switched) (traffic.Pattern, error) {
	if hx, ok := t.(*topo.HyperX); ok {
		return experiments.BuildPattern(s.Pattern, traffic.Servers{H: hx, Per: s.Per}, s.PatternSeed)
	}
	if s.Pattern == "Uniform" {
		return traffic.NewUniform(t.Switches() * s.Per)
	}
	return nil, fmt.Errorf("pattern %q needs a HyperX topology", s.Pattern)
}

// runSetupRep times the construction-only pass: for every point,
// (*JobSpec).MeasureMemory builds the topology and network, the pattern,
// the mechanism and the engine (sim.MeasureEngineMemory) without stepping.
// Each pass reports the time summed over points. An untimed warm-up pass
// comes first: a grid pays for growing a fresh process's heap once, not
// at every point, so a cold pass would overstate the set-up time.
func runSetupRep(w io.Writer, wl workload, seed uint64) error {
	specs, err := wl.specs(seed)
	if err != nil {
		return err
	}
	configureEngine()
	experiments.SetGridWorkers(wl.pool)
	out := &emitter{enc: json.NewEncoder(w)}
	end := &repEnd{}
	for p := 0; p <= setupPasses; p++ {
		// Each pass is a "point" to the parent's wall bound; pass 0 is the
		// warm-up.
		out.emit(event{Kind: "start", Index: p})
		var total time.Duration
		for i := range specs {
			t0 := time.Now()
			if _, err := specs[i].MeasureMemory(); err != nil {
				return fmt.Errorf("%s: %w", specs[i].String(), err)
			}
			total += time.Since(t0)
		}
		if p > 0 {
			end.SetupSecs = append(end.SetupSecs, total.Seconds())
		}
		out.emit(event{Kind: "done", Index: p, Secs: total.Seconds()})
	}
	out.emit(event{Kind: "end", End: end})
	return nil
}
