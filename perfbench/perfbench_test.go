package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {90, 50}, {100, 90}, {900, 90}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && beyond(tc.n, p) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond", tc.n, p, beyond(tc.n, p))
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 90); math.Abs(got-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestReportPrintsSampleCounts(t *testing.T) {
	p := &parent{wl: workload{name: "w", pool: 2}}
	rpt := &report{
		Env: envStamp{SourceSHA256: strings.Repeat("0", 64)}, Samples: 120, TailPct: 90,
		Line: resultLine{Metrics: map[string]metric{"point_p90_s": {1.5, "s"}}},
	}
	var b bytes.Buffer
	p.print(&b, rpt)
	if !strings.Contains(b.String(), "point_p90_s") || !strings.Contains(b.String(), "(n=120, 12 beyond; p90 is the highest percentile") {
		t.Errorf("report does not print the sample count and tail rule:\n%s", b.String())
	}
}

func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "grid", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "point", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "point", Start: 3, End: 6}, // overlaps span 2
		{ID: 4, Parent: 2, Name: "sim.run", Start: 2, End: 3},
		{ID: 5, Parent: 1, Name: "point", Start: 9, End: 12}, // runs past its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 10 - 5 - 1, 2: 3 - 1, 3: 3, 4: 1, 5: 3} {
		if math.Abs(self[id]-want) > 1e-12 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

// fakeParent is a parent over n tiny specs whose results are the given
// byte strings.
func fakeParent(n int, recorded []string) (*parent, [][]byte) {
	p := &parent{wl: workload{name: "w"}, seed: 7, ref: &reference{Digests: map[string]digestRecord{}}}
	results := make([][]byte, n)
	for i := range n {
		p.specs = append(p.specs, experiments.JobSpec{Mechanism: "PolSP", Pattern: "Uniform", Load: float64(i+1) / 10})
		results[i] = []byte{byte(i)}
	}
	if recorded != nil {
		p.ref.Digests[digestKey("w", 7, sim.EngineVersion)] = digestRecord{Points: recorded}
	}
	return p, results
}

func TestDigestMismatchFailsTheRun(t *testing.T) {
	p, results := fakeParent(3, nil)
	good := &rep{results: results}
	bad := &rep{results: [][]byte{results[0], {42}, results[2]}}
	p.crossCheck([]*rep{good, bad})
	if good.Failed != 0 {
		t.Errorf("first repetition marked failed: %v", good.Failures)
	}
	if bad.Failed != 3 || len(bad.Failures) != 1 || !strings.Contains(bad.Failures[0], "first at point 1 ") {
		t.Errorf("differing repetition: failed %d, failures %v; want all 3 points failed naming point 1", bad.Failed, bad.Failures)
	}

	_, points := digest(results)
	recorded := append([]string(nil), points...)
	recorded[2] = "0000000000000000"
	p, results = fakeParent(3, recorded)
	r := &rep{results: results}
	p.crossCheck([]*rep{r})
	if r.Failed != 3 || !strings.Contains(r.Failures[0], "recorded digest, first at point 2 ") {
		t.Errorf("mismatch with the record: failed %d, failures %v", r.Failed, r.Failures)
	}
	rpt := p.summarize([]*rep{r}, []float64{1}, envStamp{})
	if rpt.Line.Correct || rpt.Line.Failed != 3 || rpt.Line.Attempted != 3 {
		t.Errorf("summary of a mismatching run: %+v", rpt.Line)
	}
}

// TestHelperChild is not a test: it is the child process the supervision
// tests start, selected by PERFBENCH_HELPER.
func TestHelperChild(t *testing.T) {
	mode := os.Getenv("PERFBENCH_HELPER")
	if mode == "" {
		t.Skip("helper process only")
	}
	w := bufio.NewWriter(os.Stdout)
	emit := func(ev event) {
		b, _ := json.Marshal(ev)
		fmt.Fprintf(w, "%s\n", b)
		w.Flush()
	}
	// Results that pass the sanity checks against fakeParent's specs.
	result := func(i int) []byte {
		load := float64(i+1) / 10
		return (&sim.Result{OfferedLoad: load, AcceptedLoad: load, DeliveredPackets: 1}).AppendBinary(nil)
	}
	emit(event{Kind: "start", Index: 0})
	emit(event{Kind: "start", Index: 1})
	emit(event{Kind: "done", Index: 1, Secs: 0.1, Result: result(1)})
	if mode == "hang" {
		time.Sleep(time.Hour) // point 0 never finishes
	}
	if mode == "silent" {
		emit(event{Kind: "done", Index: 0, Secs: 0.1, Result: result(0)})
		time.Sleep(time.Hour) // stuck before reporting the end
	}
	emit(event{Kind: "done", Index: 0, Secs: 0.1, Result: result(0)})
	emit(event{Kind: "end", End: &repEnd{WallSecs: 0.2}})
	os.Exit(0)
}

func helper(mode string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperChild$")
	cmd.Env = append(os.Environ(), "PERFBENCH_HELPER="+mode)
	return cmd
}

func TestTimeoutFailsUnfinishedPoints(t *testing.T) {
	start := time.Now()
	o := superviseRep(helper("hang"), 300*time.Millisecond, 5*time.Second)
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("supervision took %s", took)
	}
	if len(o.Hung) != 1 || o.Hung[0] != 0 {
		t.Fatalf("hung points = %v, want [0]", o.Hung)
	}
	if !strings.Contains(o.Dump, "goroutine") {
		t.Errorf("no goroutine dump captured: %q", truncate(o.Dump, 500))
	}
	p, _ := fakeParent(3, nil)
	r := p.check(o, false)
	if r.Failed != 2 || !strings.Contains(strings.Join(r.Failures, "\n"), "point 0 (PolSP/Uniform at load 0.10): unfinished") {
		t.Errorf("failed = %d, want 2 (point 0 stuck, point 2 never started): %v", r.Failed, r.Failures)
	}
}

func TestSilentChildIsStopped(t *testing.T) {
	o := superviseRep(helper("silent"), 300*time.Millisecond, 5*time.Second)
	if o.Hung == nil || len(o.Hung) != 0 || o.End != nil || len(o.Done) != 2 {
		t.Fatalf("outcome: hung %v, end %v, done %d; want stopped with no point running", o.Hung, o.End, len(o.Done))
	}
}

func TestSupervisedChildCompletes(t *testing.T) {
	o := superviseRep(helper("ok"), 10*time.Second, time.Second)
	if o.Err != nil || o.Hung != nil || o.End == nil || len(o.Done) != 2 {
		t.Fatalf("outcome: err %v, hung %v, end %v, done %d", o.Err, o.Hung, o.End, len(o.Done))
	}
	if o.MaxRSSKiB <= 0 {
		t.Errorf("peak RSS not measured: %d", o.MaxRSSKiB)
	}
}

// TestTracedRepIsTransparent runs a tiny grid untraced and traced in
// process: the traced path (wrapped mechanism, per-layer construction)
// must reproduce the untraced result bytes exactly.
func TestTracedRepIsTransparent(t *testing.T) {
	h := topo.MustHyperX(3, 3)
	wl := workload{name: "tiny", pool: 2, specs: func(seed uint64) ([]experiments.JobSpec, error) {
		var specs []experiments.JobSpec
		for _, mech := range []string{"PolSP", "Minimal"} {
			specs = append(specs, experiments.JobSpec{
				Topo: experiments.HyperXSpec(h), Per: 3, Mechanism: mech, Pattern: "Uniform", VCs: 4,
				Load: 0.3, Budget: experiments.Budget{Warmup: 50, Measure: 150},
				FaultSchedule: nil, Seed: experiments.JobSeed(seed, len(specs)), PatternSeed: seed,
			})
		}
		return specs, nil
	}}
	run := func(traced bool) (map[int][]byte, *repEnd) {
		var out bytes.Buffer
		if err := runGridRep(&out, wl, 3, traced, t.TempDir()); err != nil {
			t.Fatal(err)
		}
		got := make(map[int][]byte)
		var end *repEnd
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
			var ev event
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Err != "" {
				t.Fatalf("point %d: %s", ev.Index, ev.Err)
			}
			if ev.Kind == "done" {
				got[ev.Index] = ev.Result
			}
			if ev.Kind == "end" {
				end = ev.End
			}
		}
		return got, end
	}
	plain, _ := run(false)
	traced, end := run(true)
	if len(plain) != 2 {
		t.Fatalf("untraced rep finished %d points, want 2", len(plain))
	}
	for i, b := range plain {
		if !bytes.Equal(b, traced[i]) {
			t.Errorf("point %d: traced result differs from untraced", i)
		}
	}
	if end == nil || end.Layers["routing.candidates_calls"] <= 0 || end.Layers["cache.misses"] != 2 || end.Layers["sim.step_s"] <= 0 || end.Layers["escape.build_s"] <= 0 {
		t.Errorf("traced layers missing: %v", end)
	}
}

func TestWorkloadsAreSeeded(t *testing.T) {
	for _, wl := range workloads {
		a, err := wl.specs(1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := wl.specs(1)
		c, _ := wl.specs(2)
		if len(a) == 0 || len(a) != len(b) || len(a) != len(c) {
			t.Fatalf("%s: %d/%d/%d points", wl.name, len(a), len(b), len(c))
		}
		if wl.name == "fig-grid-4x4x4" && len(a) < 100 {
			t.Errorf("%s has %d points, want >= 100", wl.name, len(a))
		}
		same := true
		for i := range a {
			if a[i].Hash() != b[i].Hash() {
				t.Errorf("%s point %d: same seed, different spec", wl.name, i)
			}
			same = same && a[i].Hash() == c[i].Hash()
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 generate identical grids", wl.name)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, reference.json and
// the metric tables in the code naming the same workloads and metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
		if _, ok := ref.Workloads[w.Name]; !ok {
			t.Errorf("reference.json has no rationale for %q", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(ref.Predictions) != len(perLayer) {
		t.Errorf("reference.json predicts %d layer metrics, code reports %d", len(ref.Predictions), len(perLayer))
	}
	for i, p := range ref.Predictions {
		if i < len(perLayer) && p.Layer != perLayer[i].name {
			t.Errorf("prediction %d is for %q, per-layer metric %d is %q", i, p.Layer, i, perLayer[i].name)
		}
	}
	if ref.DefaultSeed == ref.HoldoutSeed {
		t.Error("the held-out seed must differ from the default seed")
	}
}
