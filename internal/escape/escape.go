// Package escape implements SurePath's opportunistic Up/Down escape
// subnetwork (Section 3.2 of the paper).
//
// Construction: pick a root switch r and classify every live link (x,y) by
// the BFS levels d(x,r), d(y,r): links joining different levels are Up/Down
// ("black"), links joining equal levels are horizontal shortcuts ("red").
// The black links induce the Up/Down distance ud(x,t): the minimum number of
// black links on a path from x to t that first moves toward the root ("up"
// sub-path) and then away from it ("down" sub-path). There is always such a
// path through the root, so ud is finite on connected networks.
//
// Two legality rules are provided:
//
//   - RuleUDTable is the paper's literal mechanism: a hop x -> y is legal
//     exactly when it strictly reduces the Up/Down distance to the target,
//     ud(y,t) < ud(x,t). Reproducing it exposed a finding that
//     TestPaperRuleHasCycles locks in: the rule admits cycles in the
//     escape channel dependency graph (CheckDeadlockFree returns them),
//     e.g. rings of same-level shortcuts, so single-buffer deadlock
//     freedom is not guaranteed by the Dally-Seitz criterion.
//
//   - RulePhased (the default) is a refinement that keeps the opportunistic
//     shortcuts but is provably deadlock-free. Each escape packet is in an
//     Up phase and then a Down phase. In the Up phase it climbs black links
//     toward the root; at any point it may transition to the Down phase,
//     where it follows the "descent DAG": black Down links plus shortcuts
//     oriented by switch id. Because the descent DAG is acyclic (potential
//     (level, id) grows along every edge) and phase changes are one-way,
//     the escape channel dependency graph is acyclic for every topology,
//     fault set and root — CheckDeadlockFree verifies this in the tests.
//
// Both rules guarantee delivery: a legal hop exists at every switch other
// than the target, and a monotone potential (ud, or phase + table distance)
// strictly decreases, so escape routes are loop-free and bounded.
//
// Penalties follow the paper: Up hops 112 phits, Down hops 96, shortcuts
// 80/64/48 for Up/Down-distance reductions of 1/2/>=3, so minimal shortcut
// paths are preferred and the root is spared.
package escape

import (
	"fmt"
	"math/bits"

	"repro/internal/routing"
	"repro/internal/topo"
)

// Rule selects the escape-hop legality rule.
type Rule int

const (
	// RulePhased is the provably deadlock-free refinement (default).
	RulePhased Rule = iota
	// RuleUDTable is the paper's literal Up/Down-distance table rule.
	RuleUDTable
	// RuleTree disables the opportunistic shortcuts entirely: a pure
	// adaptive Up*/Down* escape over black links, the AutoNet-style
	// baseline the paper improves on. Provably deadlock-free like
	// RulePhased; exists for the shortcut ablation.
	RuleTree
)

// String names the rule.
func (r Rule) String() string {
	switch r {
	case RulePhased:
		return "phased"
	case RuleUDTable:
		return "udtable"
	case RuleTree:
		return "tree"
	}
	return fmt.Sprintf("Rule(%d)", int(r))
}

// Phases of a RulePhased escape packet, stored in
// routing.PacketState.EscPhase.
const (
	PhaseUp   int8 = 0 // climbing toward the root; may transition down
	PhaseDown int8 = 1 // committed to the descent DAG
)

// Subnetwork is the escape subnetwork built for one network and root.
// Rebuild it (Build again) whenever the fault set changes.
type Subnetwork struct {
	nw    *topo.Network
	root  int32
	rule  Rule
	level []int32 // BFS distance from root over live links
	// nbr[x*radix+p] is PortNeighbor(x, p) when the link is alive, -1 when
	// it has failed: one load replaces two coordinate decodes and a
	// fault-set probe in the candidate scan, and the subnetwork is rebuilt
	// whole on every fault, so the table can never go stale.
	nbr   []int32
	radix int
	n     int
	// pk holds the three escape distances from x to t interleaved as
	// pk[(t*n+x)*3 .. +2] = (ud, ddr, uddr):
	//
	//	ud:   black-only Up/Down distance
	//	ddr:  descent-DAG distance (Unreachable under RuleUDTable)
	//	uddr: up-prefix plus descent distance (Unreachable under RuleUDTable)
	//
	// Interleaving lets the candidate scan — the hottest loop of the
	// simulator — touch one cache line per neighbor instead of one line in
	// each of three n*n arrays. Never mutated after Build.
	pk []int32
}

// Build constructs the escape subnetwork of nw rooted at root using
// RulePhased. It fails if the live graph is disconnected, since an escape
// path must exist for every pair.
func Build(nw *topo.Network, root int32) (*Subnetwork, error) {
	return BuildWithRule(nw, root, RulePhased)
}

// BuildWithRule constructs the escape subnetwork with an explicit legality
// rule.
func BuildWithRule(nw *topo.Network, root int32, rule Rule) (*Subnetwork, error) {
	g := nw.Graph()
	n := g.N()
	if root < 0 || int(root) >= n {
		return nil, fmt.Errorf("escape: root %d out of range [0,%d)", root, n)
	}
	s := &Subnetwork{nw: nw, root: root, rule: rule, n: n}
	s.level = make([]int32, n)
	if g.BFS(root, s.level) != n {
		return nil, fmt.Errorf("escape: network is disconnected (%d faults)", nw.Faults.Len())
	}
	s.radix = nw.H.SwitchRadix()
	s.nbr = make([]int32, n*s.radix)
	for x := int32(0); x < int32(n); x++ {
		for p := 0; p < s.radix; p++ {
			if nw.PortAlive(x, p) {
				s.nbr[int(x)*s.radix+p] = nw.H.PortNeighbor(x, p)
			} else {
				s.nbr[int(x)*s.radix+p] = -1
			}
		}
	}
	s.buildTables(g)
	return s, nil
}

// csr is a directed adjacency list in compressed sparse row form.
type csr struct {
	off []int32 // len n+1
	val []int32
}

func (c *csr) out(x int) []int32 { return c.val[c.off[x]:c.off[x+1]] }

// newCSR keeps the directed edges x -> y of g for which keep holds.
func newCSR(g *topo.Graph, keep func(x, y int32) bool) csr {
	n := g.N()
	c := csr{off: make([]int32, n+1)}
	for x := int32(0); x < int32(n); x++ {
		for _, y := range g.Neighbors(x) {
			if keep(x, y) {
				c.val = append(c.val, y)
			}
		}
		c.off[x+1] = int32(len(c.val))
	}
	return c
}

// buildTables fills pk. Every table is a two-phase reachability: a target
// t is within k hops of x when a first-phase path of at most k hops
// reaches it, or an up-neighbor is within k-1 hops. Over a block of 64
// targets, one bit each, that is the level-synchronous recurrence
//
//	A_k[x] = A_{k-1}[x] | OR A_{k-1}[y]  over first-phase successors y
//	B_k[x] = A_k[x]     | OR B_{k-1}[y]  over up-neighbors y
//
// from A_0[x] = B_0[x] = {x}, iterated until neither set changes; the
// level at which t enters a set is the distance. The black Down links as
// the first phase give ud in B; the descent-DAG edges give ddr in A and
// uddr in B. One level costs one OR per (edge, block).
func (s *Subnetwork) buildTables(g *topo.Graph) {
	n := s.n
	s.pk = make([]int32, 3*n*n)
	lv := s.level
	down := newCSR(g, func(x, y int32) bool { return lv[y] == lv[x]+1 })
	up := newCSR(g, func(x, y int32) bool { return lv[y] == lv[x]-1 })
	var descent csr
	if s.rule != RuleUDTable {
		descent = newCSR(g, s.descentEdge)
	}
	k := kernel{
		n: n, up: &up,
		a: make([]uint64, n), aNext: make([]uint64, n),
		b: make([]uint64, n), bNext: make([]uint64, n),
		lev: make([]int32, n*64*3),
	}
	if s.rule == RuleUDTable {
		// Only ud is computed; ddr and uddr stay Unreachable.
		for i := 0; i < len(k.lev); i += 3 {
			k.lev[i+1], k.lev[i+2] = topo.Unreachable, topo.Unreachable
		}
	}
	for base := 0; base < n; base += 64 {
		k.base, k.width = base, min(64, n-base)
		k.run(&down, -1, 0)
		if s.rule != RuleUDTable {
			k.run(&descent, 1, 2)
		}
		// Transpose the block into its pk rows, in tiles of 16 switches so
		// the scratch runs being read stay in cache across the rows.
		for x0 := 0; x0 < n; x0 += 16 {
			x1 := min(x0+16, n)
			for i := 0; i < k.width; i++ {
				row := s.pk[((base+i)*n+x0)*3 : ((base+i)*n+x1)*3]
				lev := k.lev[x0*64*3:]
				for j := range x1 - x0 {
					at := (j*64 + i) * 3
					row[j*3], row[j*3+1], row[j*3+2] = lev[at], lev[at+1], lev[at+2]
				}
			}
		}
	}
}

// kernel is the scratch of the two-phase recurrence for one target block.
type kernel struct {
	n           int
	up          *csr
	base, width int // the block's targets are base .. base+width-1
	a, aNext    []uint64
	b, bNext    []uint64
	// lev[(x*64+i)*3+c] is pk column c of the entry (base+i, x): writes
	// stay within x's own run while the bits arrive, and buildTables
	// transposes the block into pk when it is done.
	lev []int32
}

// run iterates the recurrence of buildTables over the first-phase edges
// first, writing the levels of A into column colA (skipped when negative)
// and those of B into column colB. Targets a set never reaches get
// Unreachable.
func (k *kernel) run(first *csr, colA, colB int) {
	n, base := k.n, k.base
	full := ^uint64(0) >> (64 - k.width)
	a, aNext, b, bNext := k.a, k.aNext, k.b, k.bNext
	clear(a)
	clear(b)
	for i := 0; i < k.width; i++ {
		a[base+i] = 1 << i
		b[base+i] = 1 << i
		k.write(base+i, 1<<i, colA, 0)
		k.write(base+i, 1<<i, colB, 0)
	}
	for level := int32(1); ; level++ {
		grew := false
		for x := 0; x < n; x++ {
			ax := a[x]
			if ax != full {
				for _, y := range first.out(x) {
					ax |= a[y]
				}
				if nw := ax &^ a[x]; nw != 0 {
					grew = true
					k.write(x, nw, colA, level)
				}
			}
			aNext[x] = ax
			bx := b[x] | ax
			if bx != full {
				for _, y := range k.up.out(x) {
					bx |= b[y]
				}
			}
			if nw := bx &^ b[x]; nw != 0 {
				grew = true
				k.write(x, nw, colB, level)
			}
			bNext[x] = bx
		}
		if !grew {
			break
		}
		a, aNext = aNext, a
		b, bNext = bNext, b
	}
	for x := 0; x < n; x++ {
		k.write(x, full&^a[x], colA, topo.Unreachable)
		k.write(x, full&^b[x], colB, topo.Unreachable)
	}
	k.a, k.aNext, k.b, k.bNext = a, aNext, b, bNext
}

// write stores d into column col of the entries (t, x) for every target t
// of the block whose bit is set in targets.
func (k *kernel) write(x int, targets uint64, col int, d int32) {
	if col < 0 {
		return
	}
	run := k.lev[x*64*3 : (x+1)*64*3]
	for ; targets != 0; targets &= targets - 1 {
		run[bits.TrailingZeros64(targets)*3+col] = d
	}
}

// descentEdge reports whether the directed hop x -> y belongs to the
// descent DAG: black Down links (level increases) plus — except under
// RuleTree — shortcuts oriented from lower to higher switch id. The
// potential (level, id) strictly grows along every descent edge, making
// the DAG acyclic by construction.
func (s *Subnetwork) descentEdge(x, y int32) bool {
	lx, ly := s.level[x], s.level[y]
	if ly != lx {
		return ly == lx+1
	}
	return s.rule != RuleTree && x < y
}

// Root returns the root switch of the subnetwork.
func (s *Subnetwork) Root() int32 { return s.root }

// RuleUsed returns the legality rule the subnetwork was built with.
func (s *Subnetwork) RuleUsed() Rule { return s.rule }

// Level returns the BFS level (distance to the root) of switch x.
func (s *Subnetwork) Level(x int32) int32 { return s.level[x] }

// UpDownDist returns the black-only Up/Down distance from x to t.
func (s *Subnetwork) UpDownDist(x, t int32) int32 { return s.pk[(int(t)*s.n+int(x))*3] }

// DescentDist returns the descent-DAG distance from x to t under
// RulePhased, or Unreachable when x cannot reach t by descending.
func (s *Subnetwork) DescentDist(x, t int32) int32 { return s.pk[(int(t)*s.n+int(x))*3+1] }

// IsHorizontal reports whether the live link (x,y) is a horizontal
// (shortcut, "red") link: both endpoints on the same level.
func (s *Subnetwork) IsHorizontal(x, y int32) bool { return s.level[x] == s.level[y] }

// RouteLen returns the length of the shortest legal escape route from x to
// t under RulePhased/RuleTree (the up-prefix plus descent distance). It
// measures the Section 7 "escape stretch": on HyperX escape routes contain
// near-minimal paths; on other topologies they are much longer than graph
// distance. Unavailable (Unreachable) under RuleUDTable.
func (s *Subnetwork) RouteLen(x, t int32) int32 { return s.pk[(int(t)*s.n+int(x))*3+2] }

// shortcutPenalty grades a shortcut by its black Up/Down distance reduction,
// Section 3.2's 80/64/48 classes. Reductions below 1 clamp to the worst
// class (they can occur under RulePhased when a shortcut helps the descent
// DAG but not the black metric).
func shortcutPenalty(delta int32) int32 {
	switch {
	case delta >= 3:
		return routing.PenaltyShortcut3up
	case delta == 2:
		return routing.PenaltyShortcut2
	default:
		return routing.PenaltyShortcut1
	}
}

// Candidates appends the legal escape hops for a packet at switch cur in
// escape phase phase (PhaseUp for packets not yet in the escape subnetwork)
// targeting switch dst, with the paper's penalties. At every switch other
// than the target at least one candidate exists, and every hop strictly
// decreases a bounded potential, so escape delivery is guaranteed.
func (s *Subnetwork) Candidates(cur, dst int32, phase int8, buf []routing.PortCandidate) []routing.PortCandidate {
	if cur == dst {
		return buf
	}
	if s.rule == RuleUDTable {
		return s.udTableCandidates(cur, dst, buf)
	}
	// One interleaved row per target: pk[x*3..+2] = (ud, ddr, uddr). The
	// branch structure mirrors descentEdge inline — ln is already loaded,
	// so the DAG test costs only compares.
	pk := s.pk[int(dst)*s.n*3:]
	lc := s.level[cur]
	cb := int(cur) * 3
	udCur, ddrCur, uddrCur := pk[cb], pk[cb+1], pk[cb+2]
	nbr := s.nbr[int(cur)*s.radix : int(cur+1)*s.radix]
	for p, next := range nbr {
		if next < 0 {
			continue // failed link
		}
		ln := s.level[next]
		nb := int(next) * 3
		if phase == PhaseUp && ln == lc-1 && pk[nb+2] < uddrCur {
			buf = append(buf, routing.PortCandidate{Port: p, Penalty: routing.PenaltyEscapeUp})
			continue
		}
		// descentEdge(cur, next): a Down link (one level deeper) or — except
		// under RuleTree — a same-level shortcut oriented by increasing id.
		if ln == lc {
			if s.rule == RuleTree || cur >= next {
				continue
			}
		} else if ln != lc+1 {
			continue
		}
		ddrN := pk[nb+1]
		if ddrN >= topo.Unreachable {
			continue
		}
		if phase == PhaseDown && ddrN >= ddrCur {
			continue // in the Down phase the descent distance must shrink
		}
		if ln > lc {
			buf = append(buf, routing.PortCandidate{Port: p, Penalty: routing.PenaltyEscapeDown})
		} else {
			buf = append(buf, routing.PortCandidate{Port: p, Penalty: shortcutPenalty(udCur - pk[nb])})
		}
	}
	return buf
}

// udTableCandidates implements the paper's literal rule.
func (s *Subnetwork) udTableCandidates(cur, dst int32, buf []routing.PortCandidate) []routing.PortCandidate {
	pk := s.pk[int(dst)*s.n*3:]
	udCur := pk[int(cur)*3]
	lc := s.level[cur]
	nbr := s.nbr[int(cur)*s.radix : int(cur+1)*s.radix]
	for p, next := range nbr {
		if next < 0 {
			continue // failed link
		}
		delta := udCur - pk[int(next)*3]
		if delta <= 0 {
			continue
		}
		var penalty int32
		switch {
		case s.level[next] < lc:
			penalty = routing.PenaltyEscapeUp
		case s.level[next] > lc:
			penalty = routing.PenaltyEscapeDown
		default:
			penalty = shortcutPenalty(delta)
		}
		buf = append(buf, routing.PortCandidate{Port: p, Penalty: penalty})
	}
	return buf
}

// NextPhase returns the escape phase after taking the hop through port p of
// cur: climbing black links keeps a packet in the Up phase, any descent
// edge commits it to the Down phase. Under RuleUDTable the phase is
// irrelevant and preserved.
func (s *Subnetwork) NextPhase(cur int32, p int, phase int8) int8 {
	if s.rule == RuleUDTable {
		return phase
	}
	next := s.nw.H.PortNeighbor(cur, p)
	if s.level[next] == s.level[cur]-1 {
		return PhaseUp
	}
	return PhaseDown
}
