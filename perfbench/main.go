// Command perfbench is the repository's benchmark: the wall time to
// regenerate a figure-shaped grid and the engine's simulated throughput,
// on three workloads that stress different layers (see reference.json for
// why each was chosen and what each layer metric should move).
//
//	perfbench -workload <name> [-seed n] [-seconds s] [-trace 0|1]
//
// Each run sets up the workload's points several times (construction
// only) and then regenerates the whole grid from a cold result cache as
// many times as fit in -seconds, every repetition in a child process
// under a per-point wall bound. With -trace 1 it alternates untraced
// repetitions with traced ones that time every call into each layer and
// reports the per-layer metrics instead. The last line of standard output
// is one JSON object: correct, attempted, failed and the metrics.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// Per-point wall bound: a point running longer than this is declared stuck
// (a healthy point of any workload takes a few seconds). grace is how long
// a child may take to print its goroutine dump before it is killed.
const (
	pointBound = 40 * time.Second
	grace      = 5 * time.Second
	// A run times setupPasses construction-only passes in each of
	// setupChildren children spread over the run, every child after one
	// untimed warm-up pass; the median is reported as setup_s.
	setupChildren = 3
	setupPasses   = 3
)

//go:embed reference.json
var referenceJSON []byte

// reference is the benchmark's recorded knowledge: the default and
// held-out seeds, each workload's rationale, the layer predictions, and
// the result digests that pin the simulated statistics bit for bit.
type reference struct {
	DefaultSeed uint64 `json:"default_seed"`
	HoldoutSeed uint64 `json:"holdout_seed"`
	Workloads   map[string]struct {
		Why string `json:"why"`
	} `json:"workloads"`
	// Predictions has one row per per-layer metric.
	Predictions []prediction `json:"predictions"`
	// Digests is keyed by digestKey(workload, seed, engine version).
	Digests map[string]digestRecord `json:"digests"`
}

// prediction is one row of the layer table: which end-to-end metric a
// layer metric should move, on which workload most, and where it should
// stay near zero.
type prediction struct {
	Layer  string `json:"layer"`
	Moves  string `json:"moves"`
	MostOn string `json:"most_on"`
	ZeroOn string `json:"predicted_zero_on"`
}

// digestRecord is a workload's SHA-256 over every point's result codec
// bytes in enumeration order, plus a short per-point digest that names the
// first point to differ.
type digestRecord struct {
	Digest string   `json:"digest"`
	Points []string `json:"points"`
}

func digestKey(workload string, seed uint64, engine string) string {
	return fmt.Sprintf("%s/%d/%s", workload, seed, engine)
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as a user of the system
// sees them.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cycles_per_s", "cycles/s"},
	{"point_p50_s", "s"},
	{"point_p90_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run, named by module.
var perLayer = []metricDef{
	{"topo.build_s", "s"},
	{"traffic.build_s", "s"},
	{"routing.build_s", "s"},
	{"escape.build_s", "s"},
	{"routing.rebuild_s", "s"},
	{"routing.rebuilds", "count"},
	{"routing.candidates_calls", "count"},
	{"routing.candidates_per_call", "ratio"},
	{"sim.construct_s", "s"},
	{"sim.arena_mb", "MiB"},
	{"sim.peak_staging_kb", "KiB"},
	{"sim.step_s", "s"},
	{"sim.switch_cycles_per_s", "1/s"},
	{"sim.cycles", "cycles"},
	{"sim.delivered", "packets"},
	{"sim.escape_frac", "ratio"},
	{"experiments.busy_frac", "ratio"},
	{"experiments.wait_s", "s"},
	{"cache.put_s", "s"},
	{"cache.get_s", "s"},
	{"cache.misses", "count"},
	{"trace.wall_s", "s"},
	{"trace.overhead_s", "s"},
}

func main() {
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", ref.DefaultSeed, "workload seed; inputs are a pure function of it")
	seconds := flag.Float64("seconds", 35, "how long the set-up passes and grid repetitions of one run may take")
	trace := flag.Int("trace", 0, "1 runs traced repetitions and reports the per-layer metrics")
	root := flag.String("root", ".", "repository root (for the environment stamp)")
	out := flag.String("out", ".bench_build", "directory for result caches, reports, traces and dumps")
	child := flag.String("child", "", "internal: run one repetition (grid|setup) and stream events")
	traced := flag.Bool("traced", false, "internal: trace the child repetition")
	cacheDir := flag.String("cache-dir", "", "internal: the child repetition's result cache")
	flag.Parse()

	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	switch *child {
	case "":
	case "grid":
		err = runGridRep(os.Stdout, wl, *seed, *traced, *cacheDir)
	case "setup":
		err = runSetupRep(os.Stdout, wl, *seed)
	default:
		err = fmt.Errorf("unknown child mode %q", *child)
	}
	if *child != "" {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	p := &parent{
		wl: wl, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, root: *root, out: *out, ref: ref,
	}
	if err := p.run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// parent drives one benchmark run: it generates the inputs, starts and
// supervises the child repetitions, checks their outputs and reports.
type parent struct {
	wl     workload
	seed   uint64
	budget time.Duration
	trace  bool
	root   string
	out    string
	ref    *reference
	specs  []experiments.JobSpec
}

// rep is one checked grid repetition.
type rep struct {
	Traced    bool               `json:"traced"`
	WallSecs  float64            `json:"wallSecs"`
	MaxRSSMiB float64            `json:"maxRssMiB"`
	Cycles    int64              `json:"cycles"`
	PointSecs []float64          `json:"pointSecs"`
	Digest    string             `json:"digest,omitempty"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	results   [][]byte           // per point; nil where the point failed
	spans     []span
}

func (p *parent) run(stdout io.Writer) error {
	specs, err := p.wl.specs(p.seed)
	if err != nil {
		return err
	}
	p.specs = specs
	env := stampEnv(p.root)
	tag := fmt.Sprintf("%s-seed%d-trace%d", p.wl.name, p.seed, btoi(p.trace))
	reports := filepath.Join(p.out, "reports")
	if err := os.MkdirAll(reports, 0o755); err != nil {
		return err
	}

	// In an untraced run a construction-only child precedes each of the
	// first repetitions, so the set-up samples spread over the run like the
	// grid samples do; children the run had no repetitions left for follow
	// at the end. A traced run reports no set-up time.
	start := time.Now()
	var reps []*rep
	var setupSecs, rounds []float64
	for i := 0; ; i++ {
		if p.enough(reps, rounds, time.Since(start)) {
			break
		}
		t0 := time.Now()
		if !p.trace && len(setupSecs) < setupChildren*setupPasses {
			secs, err := p.setup()
			if err != nil {
				return err
			}
			setupSecs = append(setupSecs, secs...)
		}
		traced := p.trace && i%2 == 1
		cacheDir := filepath.Join(p.out, "cache", fmt.Sprintf("%s-%d-%d", tag, os.Getpid(), i))
		o := superviseRep(p.command("grid", traced, cacheDir), pointBound, grace)
		if err := os.RemoveAll(cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: removing rep cache:", err)
		}
		rounds = append(rounds, time.Since(t0).Seconds())
		r := p.check(o, traced)
		reps = append(reps, r)
		if o.Hung != nil {
			dump := filepath.Join(reports, fmt.Sprintf("%s-rep%d-hang.txt", tag, i))
			if err := os.WriteFile(dump, []byte(o.Dump), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing goroutine dump:", err)
			}
			if len(o.Hung) == 0 {
				fmt.Fprintf(os.Stderr, "perfbench: repetition %d went silent for %s outside any point; goroutine dump in %s\n", i, pointBound, dump)
			}
			for _, h := range o.Hung {
				fmt.Fprintf(os.Stderr, "perfbench: point %d (%s, spec %s) exceeded the %s wall bound; goroutine dump in %s\n",
					h, p.specs[h].String(), p.specs[h].Hash()[:12], pointBound, dump)
			}
			break
		}
		if o.Err != nil {
			break
		}
	}
	for !p.trace && len(setupSecs) < setupChildren*setupPasses {
		secs, err := p.setup()
		if err != nil {
			return err
		}
		setupSecs = append(setupSecs, secs...)
	}
	p.crossCheck(reps)

	rpt := p.summarize(reps, setupSecs, env)
	if err := writeJSON(filepath.Join(reports, tag+".json"), rpt); err != nil {
		return err
	}
	for i, r := range reps {
		if r.Traced {
			path := filepath.Join(reports, fmt.Sprintf("%s-rep%d-spans.json", tag, i))
			if err := writeJSON(path, r.spans); err != nil {
				return err
			}
		}
	}
	p.print(stdout, rpt)
	line, err := json.Marshal(rpt.Line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// enough decides whether to stop starting repetitions: the first one (and
// in a traced run, the first traced one) always runs; after that another
// starts only if one more round of median length still fits the time
// budget. A failed repetition ends the run.
func (p *parent) enough(reps []*rep, rounds []float64, elapsed time.Duration) bool {
	var untraced, traced int
	for _, r := range reps {
		if r.Failed > 0 {
			return true
		}
		if r.Traced {
			traced++
		} else {
			untraced++
		}
	}
	if untraced == 0 || (p.trace && traced == 0) {
		return false
	}
	next := time.Duration(median(rounds) * float64(time.Second))
	return elapsed+next > p.budget
}

// setup runs a warm-up and then setupPasses timed construction-only
// passes in a child, and returns the time of each timed pass.
func (p *parent) setup() ([]float64, error) {
	o := superviseRep(p.command("setup", false, ""), pointBound, grace)
	if o.Err != nil || o.Hung != nil || o.End == nil || len(o.End.SetupSecs) != setupPasses {
		return nil, fmt.Errorf("construction-only pass failed: %v %s", o.Err, truncate(o.Dump, 2000))
	}
	return o.End.SetupSecs, nil
}

func (p *parent) command(mode string, traced bool, cacheDir string) *exec.Cmd {
	self, err := os.Executable()
	if err != nil {
		self = os.Args[0]
	}
	args := []string{"-child", mode, "-workload", p.wl.name, "-seed", strconv.FormatUint(p.seed, 10)}
	if traced {
		args = append(args, "-traced")
	}
	if cacheDir != "" {
		args = append(args, "-cache-dir", cacheDir)
	}
	return exec.Command(self, args...)
}

// check turns a child's events into a rep: every point that did not finish
// with a result that passes the sanity checks counts as failed.
func (p *parent) check(o repOutcome, traced bool) *rep {
	r := &rep{Traced: traced, MaxRSSMiB: float64(o.MaxRSSKiB) / 1024, results: make([][]byte, len(p.specs))}
	if o.End != nil {
		r.WallSecs = o.End.WallSecs
		r.Layers = o.End.Layers
		r.spans = o.End.Spans
	}
	fail := func(i int, why string) {
		r.Failed++
		r.results[i] = nil
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, fmt.Sprintf("point %d (%s): %s", i, p.specs[i].String(), why))
		}
	}
	if o.Err != nil {
		r.Failures = append(r.Failures, o.Err.Error())
	}
	for i := range p.specs {
		ev, ok := o.Done[i]
		switch {
		case !ok:
			fail(i, "unfinished")
		case ev.Err != "":
			fail(i, ev.Err)
		default:
			res, err := sim.DecodeResult(ev.Result)
			if err == nil {
				err = sane(&p.specs[i], res)
			}
			if err != nil {
				fail(i, err.Error())
				continue
			}
			r.results[i] = ev.Result
			r.PointSecs = append(r.PointSecs, ev.Secs)
			r.Cycles += res.Cycles
		}
	}
	if r.Failed == 0 {
		r.Digest, _ = digest(r.results)
	}
	return r
}

// sane checks the invariants every point of every workload must satisfy,
// whatever the seed: the configured window ran, every scheduled fault
// fired, and traffic flowed at no more than the offered load.
func sane(s *experiments.JobSpec, res *sim.Result) error {
	switch {
	case res.OfferedLoad != s.Load:
		return fmt.Errorf("offered load %v, spec says %v", res.OfferedLoad, s.Load)
	case res.Cycles != s.Budget.Warmup+s.Budget.Measure:
		return fmt.Errorf("ran %d cycles, budget is %d", res.Cycles, s.Budget.Warmup+s.Budget.Measure)
	case res.FaultsApplied != int64(len(s.FaultSchedule)):
		return fmt.Errorf("%d of %d scheduled faults fired", res.FaultsApplied, len(s.FaultSchedule))
	case res.DeliveredPackets <= 0 || res.AcceptedLoad <= 0:
		return fmt.Errorf("nothing delivered")
	case res.AcceptedLoad > 1.25*s.Load+0.01:
		return fmt.Errorf("accepted load %v exceeds offered %v", res.AcceptedLoad, s.Load)
	}
	return nil
}

// digest returns the workload digest (SHA-256 over the points' codec
// bytes in enumeration order) and each point's short digest.
func digest(results [][]byte) (string, []string) {
	h := sha256.New()
	points := make([]string, len(results))
	for i, b := range results {
		h.Write(b)
		sum := sha256.Sum256(b)
		points[i] = hex.EncodeToString(sum[:8])
	}
	return hex.EncodeToString(h.Sum(nil)), points
}

// crossCheck compares every complete repetition with the recorded digest
// for this workload, seed and engine version when there is one, and with
// the run's first complete repetition otherwise: untraced and traced
// repetitions must agree bit for bit. A repetition that differs has all
// of its points marked failed, naming the first point that differs.
func (p *parent) crossCheck(reps []*rep) {
	var want []string
	source := ""
	if rec, ok := p.ref.Digests[digestKey(p.wl.name, p.seed, sim.EngineVersion)]; ok {
		want, source = rec.Points, "the recorded digest"
	}
	for i, r := range reps {
		if r.Failed > 0 {
			continue
		}
		_, got := digest(r.results)
		if want == nil {
			want, source = got, fmt.Sprintf("repetition %d", i)
			continue
		}
		if d := firstDiff(want, got); d >= 0 {
			s := &p.specs[min(d, len(p.specs)-1)]
			r.Failures = append(r.Failures, fmt.Sprintf("digest differs from %s, first at point %d (%s, spec %s)",
				source, d, s.String(), s.Hash()[:12]))
			r.Failed = len(p.specs)
		}
	}
}

// firstDiff is the first index where the point digests differ, or -1.
func firstDiff(want, got []string) int {
	for i := range max(len(want), len(got)) {
		if i >= len(want) || i >= len(got) || want[i] != got[i] {
			return i
		}
	}
	return -1
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the run's last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything a run records, written under the output directory.
type report struct {
	Workload   string     `json:"workload"`
	Seed       uint64     `json:"seed"`
	Trace      bool       `json:"trace"`
	Env        envStamp   `json:"env"`
	Points     int        `json:"points"`
	Pool       int        `json:"pool"`
	Digest     string     `json:"digest"`
	DigestPts  []string   `json:"digestPoints,omitempty"`
	Recorded   bool       `json:"digestRecorded"`
	SetupSecs  []float64  `json:"setupSecs"`
	Reps       []*rep     `json:"reps"`
	Samples    int        `json:"pointSamples"`
	TailPct    float64    `json:"tailPercentile"`
	FailedFrac float64    `json:"failedFrac"`
	Line       resultLine `json:"result"`
}

func (p *parent) summarize(reps []*rep, setupSecs []float64, env envStamp) *report {
	rpt := &report{
		Workload: p.wl.name, Seed: p.seed, Trace: p.trace, Env: env,
		Points: len(p.specs), Pool: p.wl.pool, SetupSecs: setupSecs, Reps: reps,
	}
	_, rpt.Recorded = p.ref.Digests[digestKey(p.wl.name, p.seed, sim.EngineVersion)]
	var walls, rss, points, tracedWalls []float64
	var cycles int64 // the same in every complete repetition
	layers := make(map[string][]float64)
	for _, r := range reps {
		rpt.Line.Attempted += len(p.specs)
		rpt.Line.Failed += r.Failed
		if r.Failed > 0 {
			continue
		}
		if rpt.Digest == "" {
			rpt.Digest, rpt.DigestPts = digest(r.results)
		}
		if r.Traced {
			tracedWalls = append(tracedWalls, r.WallSecs)
			for k, v := range r.Layers {
				layers[k] = append(layers[k], v)
			}
			continue
		}
		walls = append(walls, r.WallSecs)
		cycles = r.Cycles
		rss = append(rss, r.MaxRSSMiB)
		points = append(points, r.PointSecs...)
	}
	rpt.FailedFrac = ratio(float64(rpt.Line.Failed), float64(rpt.Line.Attempted))
	rpt.Samples = len(points)
	rpt.TailPct = tailPercentile(len(points))
	rpt.Line.Correct = rpt.Line.Failed == 0 && len(walls) > 0 && (!p.trace || len(tracedWalls) > 0)
	// Metrics come from the repetitions that passed every check; a value
	// with no such repetition behind it (NaN) is left out.
	values := map[string]float64{
		"wall_s":       median(walls),
		"cycles_per_s": float64(cycles) / median(walls),
		"point_p50_s":  median(points),
		"point_p90_s":  percentile(points, 90),
		"setup_s":      median(setupSecs),
		"peak_rss_mb":  median(rss),
	}
	defs := endToEnd
	if p.trace {
		defs = perLayer
		values = make(map[string]float64)
		for k, v := range layers {
			values[k] = median(v)
		}
		values["trace.wall_s"] = median(tracedWalls)
		values["trace.overhead_s"] = median(tracedWalls) - median(walls)
	}
	rpt.Line.Metrics = make(map[string]metric)
	for _, m := range defs {
		if v, ok := values[m.name]; ok && !math.IsNaN(v) {
			rpt.Line.Metrics[m.name] = metric{v, m.unit}
		}
	}
	return rpt
}

// print writes the human-readable part of the report: the environment,
// every metric with its unit, the sample counts and the digest verdict.
func (p *parent) print(w io.Writer, rpt *report) {
	e := rpt.Env
	fmt.Fprintf(w, "perfbench %s seed %d (%d points, pool %d, trace %v)\n", p.wl.name, p.seed, rpt.Points, rpt.Pool, p.trace)
	fmt.Fprintf(w, "env: nproc %d, GOMAXPROCS %d, %s, engine %s, commit %s, source %s\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Engine, e.Commit, e.SourceSHA256[:16])
	var untraced, traced int
	for _, r := range rpt.Reps {
		if r.Traced {
			traced++
		} else {
			untraced++
		}
		for _, f := range r.Failures {
			fmt.Fprintf(w, "FAILED: %s\n", f)
		}
	}
	fmt.Fprintf(w, "repetitions: %d untraced, %d traced; setup passes: %d\n", untraced, traced, len(rpt.SetupSecs))
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	for _, m := range defs {
		v, ok := rpt.Line.Metrics[m.name]
		if !ok {
			continue
		}
		note := ""
		switch m.name {
		case "point_p50_s", "point_p90_s":
			pct := 50.0
			if m.name == "point_p90_s" {
				pct = 90
			}
			note = fmt.Sprintf("  (n=%d, %d beyond", rpt.Samples, beyond(rpt.Samples, pct))
			if rpt.TailPct > 0 {
				note += fmt.Sprintf("; p%g is the highest percentile with >=10 beyond)", rpt.TailPct)
			} else {
				note += "; no percentile has >=10 samples beyond)"
			}
		case "wall_s", "peak_rss_mb", "cycles_per_s":
			note = fmt.Sprintf("  (median of %d repetitions)", untraced)
		case "setup_s":
			note = fmt.Sprintf("  (median of %d passes)", len(rpt.SetupSecs))
		}
		fmt.Fprintf(w, "%-28s %14.6g %s%s\n", m.name, v.Value, m.unit, note)
	}
	fmt.Fprintf(w, "%-28s %14.6g ratio  (%d of %d points)\n", "failed_frac", rpt.FailedFrac, rpt.Line.Failed, rpt.Line.Attempted)
	verdict := "consistent across repetitions; no digest recorded for this seed"
	if rpt.Recorded {
		verdict = "matches the recorded digest"
	}
	if rpt.Line.Failed > 0 {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "digest %s %s\n", rpt.Digest, verdict)
}

// envStamp identifies the machine and code a report was measured on, so
// numbers are only compared like for like.
type envStamp struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"goVersion"`
	Engine       string `json:"engine"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"sourceSha256"`
}

func stampEnv(root string) envStamp {
	commit := "unknown"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(b))
		}
	}
	return envStamp{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Engine:       sim.EngineVersion,
		Commit:       commit,
		SourceSHA256: sourceDigest(root),
	}
}

// sourceDigest hashes every Go source and module file under root, skipping
// hidden directories: the identity of the code measured, available where
// the checkout carries no git metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the stamp
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "reference.json") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
