package topo

import (
	"fmt"
	"slices"
	"testing"
)

// scalarDistances is the reference the bit-parallel Distances is checked
// against: one queue BFS per source.
func scalarDistances(g *Graph) []int32 {
	n := g.N()
	d := make([]int32, n*n)
	for v := 0; v < n; v++ {
		g.BFS(int32(v), d[v*n:(v+1)*n])
	}
	return d
}

// isolate fails every link of switch x.
func isolate(t Switched, x int32) []Edge {
	var edges []Edge
	for p := 0; p < t.SwitchRadix(); p++ {
		edges = append(edges, NewEdge(x, t.PortNeighbor(x, p)))
	}
	return edges
}

func TestDistancesMatchScalarBFS(t *testing.T) {
	type tc struct {
		name string
		g    *Graph
	}
	var cases []tc
	add := func(name string, g *Graph) { cases = append(cases, tc{name, g}) }
	add("empty", MustGraph(0, nil))
	add("single", MustGraph(1, nil))
	// A 150-cycle: distances up to 75 span more levels than a block has bits.
	var ring []Edge
	for i := int32(0); i < 150; i++ {
		ring = append(ring, NewEdge(i, (i+1)%150))
	}
	add("ring150", MustGraph(150, ring))
	tops := []Switched{
		MustHyperX(3, 3),       // n < 64
		MustHyperX(5, 7),       // n < 64
		MustHyperX(8, 8),       // n = 64
		MustHyperX(4, 4, 4),    // n = 64
		MustHyperX(5, 13),      // n = 65
		MustHyperX(3, 5, 7),    // n not a multiple of 64
		MustHyperX(8, 8, 8),    // eight full blocks
		MustTorus(5, 5),        // n < 64
		MustTorus(8, 9),        // n not a multiple of 64
		MustDragonfly(4, 2),    // n < 64
		MustDragonfly(6, 3),    // n not a multiple of 64
		MustTorus(4, 5, 3),     // 3D torus
		MustHyperX(2, 2, 2, 2), // tiny, high dimension
	}
	for _, top := range tops {
		add(top.String(), GraphOf(top))
		seq := RandomFaultSequence(top, 3)
		for _, frac := range []int{10, 40, 75} {
			cut := len(seq) * frac / 100
			nw := NewNetwork(top, NewFaultSet(seq[:cut]...))
			add(fmt.Sprintf("%s/%d-random-faults", top, cut), nw.Graph())
		}
		nw := NewNetwork(top, NewFaultSet(isolate(top, int32(top.Switches()-1))...))
		add(fmt.Sprintf("%s/isolated-last", top), nw.Graph())
	}
	for _, h := range []*HyperX{MustHyperX(8, 8), MustHyperX(16, 16), MustHyperX(4, 4, 4), MustHyperX(8, 8, 8)} {
		for _, root := range []int32{0, int32(h.Switches() / 3)} {
			for _, kind := range []ShapeKind{ShapeRow, ShapeSubBlock, ShapeCross} {
				edges, err := PaperShape(h, root, kind)
				if err != nil {
					t.Fatal(err)
				}
				nw := NewNetwork(h, NewFaultSet(edges...))
				add(fmt.Sprintf("%s/%s@%d", h, kind.PaperName(h.NDims()), root), nw.Graph())
			}
		}
	}
	for _, c := range cases {
		got, want := c.g.Distances(), scalarDistances(c.g)
		if !slices.Equal(got, want) {
			n := c.g.N()
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("%s: d(%d,%d) = %d, want %d", c.name, j/n, j%n, got[j], want[j])
					break
				}
			}
		}
	}
}
