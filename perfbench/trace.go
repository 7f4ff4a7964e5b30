package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/routing"
	"repro/internal/topo"
)

// span is one timed call into a layer. Spans of one grid point share its
// spec hash as Point; Parent is the ID of the span that made the call (0
// for a root). Times are seconds since the tracer's origin.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Point  string  `json:"point,omitempty"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: grid points and engine workers record from their own
// goroutines.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) at(now time.Time) float64 { return now.Sub(t.origin).Seconds() }

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(name, point string, parent int) int {
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Point: point, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the engine's
// own construction timer).
func (t *tracer) add(name, point string, parent int, start time.Time, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.at(start)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Point: point, Start: s, End: s + d.Seconds()})
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children that overlap each other
// (concurrent grid points under one grid span) are counted once.
func selfTimes(spans []span) map[int]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, reach := 0.0, parent.Start
	for _, v := range ivs {
		lo := max(v.lo, reach)
		if v.hi > lo {
			total += v.hi - lo
			reach = v.hi
		}
	}
	return total
}

// layerCounters are the work counts the mechanism wrapper takes where the
// engine calls into the routing layer. The engine calls one mechanism from
// all of its workers, hence the atomics; each point has its own counters,
// so that concurrent points do not contend for them.
type layerCounters struct {
	candidateCalls   atomic.Int64
	candidateResults atomic.Int64
	rebuilds         atomic.Int64
}

// countingMechanism wraps a routing.Mechanism to time Rebuild and count
// Candidates calls and their results. Every call passes through unchanged,
// which the traced run proves by reproducing the untraced result digest.
type countingMechanism struct {
	routing.Mechanism
	tr     *tracer
	point  string
	parent int
	c      layerCounters
}

func (m *countingMechanism) Candidates(cur int32, st *routing.PacketState, curVC int, scr *routing.Scratch, buf []routing.Candidate) []routing.Candidate {
	n := len(buf)
	buf = m.Mechanism.Candidates(cur, st, curVC, scr, buf)
	m.c.candidateCalls.Add(1)
	m.c.candidateResults.Add(int64(len(buf) - n))
	return buf
}

func (m *countingMechanism) Rebuild(nw *topo.Network) error {
	id := m.tr.begin("routing.rebuild", m.point, m.parent)
	defer m.tr.end(id)
	m.c.rebuilds.Add(1)
	return m.Mechanism.Rebuild(nw)
}

// layers turns a traced rep's spans and counters into the per-layer
// metrics. Layer times are summed over the grid's points; sim.step_s is
// the self time of the sim.run spans (the run minus its construction and
// rebuild children). routing.build_s includes the escape-subnetwork build
// that escape.build_s times again on its own, outside the grid.
func (r *tracedRun) layers(spans []span, pool int, wall float64) map[string]float64 {
	total := make(map[string]float64)
	for _, s := range spans {
		total[s.Name] += s.dur()
	}
	self := selfTimes(spans)
	var step float64
	for _, s := range spans {
		if s.Name == "sim.run" {
			step += self[s.ID]
		}
	}
	_, misses := r.store.Stats() // every grid runs from a cold cache: no hits
	r.mu.Lock()
	defer r.mu.Unlock()
	slots := float64(pool) * wall
	return map[string]float64{
		"topo.build_s":                total["topo.build"],
		"traffic.build_s":             total["traffic.build"],
		"routing.build_s":             total["routing.build"],
		"escape.build_s":              total["escape.build"],
		"routing.rebuild_s":           total["routing.rebuild"],
		"routing.rebuilds":            float64(r.rebuilds),
		"routing.candidates_calls":    float64(r.calls),
		"routing.candidates_per_call": ratio(float64(r.results), float64(r.calls)),
		"sim.construct_s":             total["sim.construct"],
		"sim.arena_mb":                float64(r.arenaMax) / (1 << 20),
		"sim.peak_staging_kb":         float64(r.stagingMax) / (1 << 10),
		"sim.step_s":                  step,
		"sim.switch_cycles_per_s":     ratio(float64(r.switchCycles), step),
		"sim.cycles":                  float64(r.cycles),
		"sim.delivered":               float64(r.delivered),
		"sim.escape_frac":             ratio(r.escaped, float64(r.delivered)),
		"experiments.busy_frac":       ratio(total["point"], slots),
		"experiments.wait_s":          slots - total["point"],
		"cache.get_s":                 total["cache.get"],
		"cache.put_s":                 total["cache.put"],
		"cache.misses":                float64(misses),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
