package escape

import (
	"fmt"
	"testing"

	"repro/internal/topo"
)

// scalarTables is the reference the bit-parallel table build is checked
// against: per target, a reverse BFS over the first-phase edges (black
// Down links for ud, descent-DAG edges for ddr), then a dynamic program
// over increasing levels folding in the up-prefixes:
//
//	ud(x,t)   = min(down(x,t), 1 + min{ud(y,t)   : y up-neighbor of x})
//	uddr(x,t) = min(ddr(x,t),  1 + min{uddr(y,t) : y up-neighbor of x})
//
// Tables are target-major, [t*n+x]. Under RuleUDTable ddr and uddr stay
// Unreachable.
func scalarTables(s *Subnetwork) (ud, ddr, uddr []int32) {
	g := s.nw.Graph()
	n := s.n
	var order []int32
	for l := int32(0); len(order) < n; l++ {
		for v := int32(0); v < int32(n); v++ {
			if s.level[v] == l {
				order = append(order, v)
			}
		}
	}
	// reach fills dist[w] with the first-phase hops from w to t.
	reach := func(t int32, first func(x, y int32) bool, dist []int32) {
		for i := range dist {
			dist[i] = topo.Unreachable
		}
		dist[t] = 0
		queue := []int32{t}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range g.Neighbors(v) {
				if first(w, v) && dist[w] == topo.Unreachable {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
	}
	fold := func(first, out []int32) {
		for _, x := range order {
			best := first[x]
			for _, y := range g.Neighbors(x) {
				if s.level[y] == s.level[x]-1 && out[y]+1 < best {
					best = out[y] + 1
				}
			}
			out[x] = best
		}
	}
	blackDown := func(x, y int32) bool { return s.level[y] == s.level[x]+1 }
	ud, ddr, uddr = make([]int32, n*n), make([]int32, n*n), make([]int32, n*n)
	down := make([]int32, n)
	for t := int32(0); t < int32(n); t++ {
		row := func(tab []int32) []int32 { return tab[int(t)*n : int(t+1)*n] }
		reach(t, blackDown, down)
		fold(down, row(ud))
		if s.rule == RuleUDTable {
			for x := range n {
				row(ddr)[x], row(uddr)[x] = topo.Unreachable, topo.Unreachable
			}
			continue
		}
		reach(t, s.descentEdge, row(ddr))
		fold(row(ddr), row(uddr))
	}
	return ud, ddr, uddr
}

type namedNetwork struct {
	name string
	nw   *topo.Network
}

// oracleNetworks lists connected networks covering both HyperX
// dimensionalities with random and structured faults, the other
// topologies, and block edge cases: n < 64, n = 64 and n not a multiple
// of 64.
func oracleNetworks(t *testing.T) []namedNetwork {
	t.Helper()
	var nets []namedNetwork
	add := func(name string, nw *topo.Network) {
		if nw.Graph().Connected() {
			nets = append(nets, namedNetwork{name, nw})
		}
	}
	for _, top := range []topo.Switched{
		topo.MustHyperX(3, 3),
		topo.MustHyperX(5, 7),
		topo.MustHyperX(8, 8),
		topo.MustHyperX(4, 4, 4),
		topo.MustHyperX(5, 13),
		topo.MustHyperX(3, 5, 7),
		topo.MustHyperX(8, 8, 8),
		topo.MustTorus(5, 5),
		topo.MustTorus(8, 9),
		topo.MustDragonfly(4, 2),
		topo.MustDragonfly(6, 3),
	} {
		seq := topo.RandomFaultSequence(top, 11)
		for _, cut := range []int{0, len(seq) / 30, len(seq) / 10, len(seq) / 4} {
			add(fmt.Sprintf("%s/%d-random-faults", top, cut), topo.NewNetwork(top, topo.NewFaultSet(seq[:cut]...)))
		}
	}
	for _, h := range []*topo.HyperX{topo.MustHyperX(8, 8), topo.MustHyperX(4, 4, 4), topo.MustHyperX(8, 8, 8)} {
		root := h.ID(make([]int, h.NDims()))
		for _, kind := range []topo.ShapeKind{topo.ShapeRow, topo.ShapeSubBlock, topo.ShapeCross} {
			edges, err := topo.PaperShape(h, root, kind)
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("%s/%s", h, kind.PaperName(h.NDims())), topo.NewNetwork(h, topo.NewFaultSet(edges...)))
		}
	}
	return nets
}

func TestTablesMatchScalarReference(t *testing.T) {
	for _, c := range oracleNetworks(t) {
		name, nw := c.name, c.nw
		n := int32(nw.H.Switches())
		for _, root := range []int32{0, 77 % n, n / 2, n - 1} {
			for _, rule := range []Rule{RulePhased, RuleUDTable, RuleTree} {
				s, err := BuildWithRule(nw, root, rule)
				if err != nil {
					t.Fatalf("%s root %d %v: %v", name, root, rule, err)
				}
				ud, ddr, uddr := scalarTables(s)
				for i := range ud {
					x, tgt := int32(i)%n, int32(i)/n
					got := [3]int32{s.UpDownDist(x, tgt), s.DescentDist(x, tgt), s.RouteLen(x, tgt)}
					if want := [3]int32{ud[i], ddr[i], uddr[i]}; got != want {
						t.Fatalf("%s root %d %v: (ud, ddr, uddr)(%d -> %d) = %v, want %v", name, root, rule, x, tgt, got, want)
					}
				}
			}
		}
	}
}

func TestBuildErrorsUnchanged(t *testing.T) {
	for _, top := range []topo.Switched{topo.MustHyperX(4, 4), topo.MustHyperX(3, 5, 7), topo.MustTorus(5, 5)} {
		n := int32(top.Switches())
		f := topo.NewFaultSet()
		for p := 0; p < top.SwitchRadix(); p++ {
			f.Add(n-1, top.PortNeighbor(n-1, p))
		}
		nw := topo.NewNetwork(top, f)
		for _, rule := range []Rule{RulePhased, RuleUDTable, RuleTree} {
			for _, root := range []int32{0, n - 1} {
				_, err := BuildWithRule(nw, root, rule)
				want := fmt.Sprintf("escape: network is disconnected (%d faults)", f.Len())
				if err == nil || err.Error() != want {
					t.Errorf("%s root %d %v: err %v, want %q", top, root, rule, err, want)
				}
			}
			_, err := BuildWithRule(nw, n, rule)
			want := fmt.Sprintf("escape: root %d out of range [0,%d)", n, n)
			if err == nil || err.Error() != want {
				t.Errorf("%s %v: err %v, want %q", top, rule, err, want)
			}
		}
	}
}
