package main

import (
	"fmt"
	"runtime"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/topo"
)

// workload is one benchmark input set: a generator that turns a seed into
// the grid of job specs, and the number of points the grid runs at once.
// The generator emits specs only; the code under test sees nothing else.
type workload struct {
	name string
	// pool is the grid pool size handed to experiments.ExecuteJobs. The
	// adaptive intra-run policy divides GOMAXPROCS by it, so pool 1 on
	// 8x8x8 gives each engine every CPU and pool 2 keeps engines
	// sequential on two CPUs: never more busy simulation goroutines than
	// GOMAXPROCS.
	pool  int
	specs func(seed uint64) ([]experiments.JobSpec, error)
}

// The reasons for each workload, and the layer predictions that go with
// them, are recorded in reference.json.
var workloads = []workload{
	{name: "loaded-8x8x8", pool: 1, specs: loadedSpecs},
	{name: "sparse-faults-8x8x8", pool: pairPool(), specs: sparseFaultSpecs},
	{name: "fig-grid-4x4x4", pool: pairPool(), specs: figGridSpecs},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// pairPool runs two points at a time, or one on a single-CPU machine.
func pairPool() int {
	return min(2, runtime.GOMAXPROCS(0))
}

// rootFor draws the escape subnetwork root from the seed, so different
// seeds exercise different escape trees. Stream -1 is one no grid point's
// JobSeed uses.
func rootFor(h *topo.HyperX, seed uint64) int32 {
	return int32(experiments.JobSeed(seed, -1) % uint64(h.Switches()))
}

// faultSequence returns the first n links of the seed's random fault
// order, refusing a prefix that disconnects the network: SurePath tables
// (and their live rebuilds) need a connected graph, and the benchmark
// must not generate inputs on which a point fails.
func faultSequence(h *topo.HyperX, seed uint64, n int) ([]topo.Edge, error) {
	seq := topo.RandomFaultSequence(h, seed)[:n]
	if !topo.NewNetwork(h, topo.NewFaultSet(seq...)).Graph().Connected() {
		return nil, fmt.Errorf("seed %d: %d random faults disconnect %s", seed, n, h)
	}
	return seq, nil
}

// loadedSpecs: PolSP under Uniform traffic on the paper's 8x8x8 (K=8) at
// loads 0.3, 0.6 and 0.9 fault-free, plus a saturation point at load 1.0
// under a static random fault set.
func loadedSpecs(seed uint64) ([]experiments.JobSpec, error) {
	h := topo.MustHyperX(8, 8, 8)
	faults, err := faultSequence(h, seed, 64)
	if err != nil {
		return nil, err
	}
	base := experiments.JobSpec{
		Topo: experiments.HyperXSpec(h), Per: 8,
		Mechanism: "PolSP", Pattern: "Uniform", VCs: 2 * h.NDims(), Root: rootFor(h, seed),
		Budget:      experiments.Budget{Warmup: 300, Measure: 900},
		PatternSeed: seed,
	}
	var specs []experiments.JobSpec
	for _, load := range []float64{0.3, 0.6, 0.9, 1.0} {
		s := base
		s.Load = load
		if load == 1.0 {
			s.Faults = faults
		}
		s.Seed = experiments.JobSeed(seed, len(specs))
		specs = append(specs, s)
	}
	return specs, nil
}

// sparseFaultSpecs: OmniSP and PolSP at load 0.02 on 8x8x8, each point
// under a static random fault prefix of growing size plus three live link
// failures drawn from the continuation of the same sequence.
func sparseFaultSpecs(seed uint64) ([]experiments.JobSpec, error) {
	h := topo.MustHyperX(8, 8, 8)
	const live = 3
	budget := experiments.Budget{Warmup: 300, Measure: 1200}
	var specs []experiments.JobSpec
	for _, static := range []int{0, 20, 40, 60, 80} {
		seq, err := faultSequence(h, seed, static+live)
		if err != nil {
			return nil, err
		}
		var schedule []sim.FaultEvent
		for i, e := range seq[static:] {
			cycle := budget.Warmup + budget.Measure*int64(i+1)/(live+1)
			schedule = append(schedule, sim.FaultEvent{Cycle: cycle, Edge: e})
		}
		for _, mech := range experiments.SurePathNames() {
			specs = append(specs, experiments.JobSpec{
				Label: fmt.Sprintf("%s with %d+%d faults", mech, static, live),
				Topo:  experiments.HyperXSpec(h), Per: 8,
				Mechanism: mech, Pattern: "Uniform", VCs: 4, Root: rootFor(h, seed),
				Load: 0.02, Budget: budget,
				Faults: seq[:static], FaultSchedule: schedule,
				Seed: experiments.JobSeed(seed, len(specs)), PatternSeed: seed,
			})
		}
	}
	return specs, nil
}

// figGridSpecs: a Figure 5-shaped fault-free sweep on the default-scale
// 4x4x4, every Table 4 mechanism under every 3D pattern at DefaultBudget.
// The five loads reach saturation for Valiant and for the adversarial
// patterns; the saturated Uniform points above 0.5 would triple the grid's
// time without exercising anything new.
func figGridSpecs(seed uint64) ([]experiments.JobSpec, error) {
	h := experiments.Topology3D(experiments.ScaleSmall)
	var specs []experiments.JobSpec
	for _, pat := range experiments.PatternNames(h.NDims()) {
		for _, mech := range experiments.MechanismNames() {
			for _, load := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
				specs = append(specs, experiments.JobSpec{
					Topo: experiments.HyperXSpec(h), Per: h.Dims()[0],
					Mechanism: mech, Pattern: pat, VCs: 2 * h.NDims(), Root: rootFor(h, seed),
					Load: load, Budget: experiments.DefaultBudget(),
					Seed: experiments.JobSeed(seed, len(specs)), PatternSeed: seed,
				})
			}
		}
	}
	return specs, nil
}
