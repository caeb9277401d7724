package machine

import (
	"math"
	"testing"
)

func TestHopsBasics(t *testing.T) {
	for _, topo := range Topologies {
		for _, p := range []int{2, 4, 16, 64} {
			for src := 0; src < p; src++ {
				for dst := 0; dst < p; dst++ {
					h := topo.Hops(src, dst, p)
					switch {
					case src == dst && h != 0:
						t.Fatalf("%v: Hops(%d,%d)=%d, want 0", topo, src, dst, h)
					case src != dst && h < 1:
						t.Fatalf("%v: Hops(%d,%d)=%d, want >=1", topo, src, dst, h)
					}
					// Symmetric.
					if rev := topo.Hops(dst, src, p); rev != h {
						t.Fatalf("%v: asymmetric hops %d vs %d", topo, h, rev)
					}
					// Bounded by the diameter.
					if h > topo.Diameter(p) {
						t.Fatalf("%v p=%d: Hops(%d,%d)=%d exceeds diameter %d",
							topo, p, src, dst, h, topo.Diameter(p))
					}
				}
			}
		}
	}
}

func TestHopsKnownValues(t *testing.T) {
	cases := []struct {
		topo     Topology
		src, dst int
		p        int
		want     int
	}{
		{Crossbar, 0, 63, 64, 1},
		{Hypercube, 0, 63, 64, 6}, // 111111
		{Hypercube, 5, 6, 64, 2},  // 101 ^ 110 = 011
		{Mesh2D, 0, 63, 64, 14},   // (0,0) -> (7,7) on 8x8
		{Mesh2D, 0, 9, 64, 2},     // (0,0) -> (1,1)
		{Ring, 0, 1, 64, 1},
		{Ring, 0, 63, 64, 1}, // wraps
		{Ring, 0, 32, 64, 32},
	}
	for _, tc := range cases {
		if got := tc.topo.Hops(tc.src, tc.dst, tc.p); got != tc.want {
			t.Errorf("%v.Hops(%d,%d,%d) = %d, want %d", tc.topo, tc.src, tc.dst, tc.p, got, tc.want)
		}
	}
}

func TestDiameters(t *testing.T) {
	cases := []struct {
		topo Topology
		p    int
		want int
	}{
		{Crossbar, 128, 1},
		{Hypercube, 128, 7},
		{Mesh2D, 64, 14},
		{Ring, 64, 32},
		{Ring, 1, 0},
	}
	for _, tc := range cases {
		if got := tc.topo.Diameter(tc.p); got != tc.want {
			t.Errorf("%v.Diameter(%d) = %d, want %d", tc.topo, tc.p, got, tc.want)
		}
	}
}

func TestTopologyStrings(t *testing.T) {
	for _, topo := range Topologies {
		if topo.String() == "" {
			t.Errorf("topology %d unnamed", int(topo))
		}
	}
	if Topology(9).String() != "Topology(9)" {
		t.Errorf("unknown topology name %q", Topology(9).String())
	}
}

func TestPerHopCostCharged(t *testing.T) {
	// On a 64-node ring, a message to the opposite side must cost 31
	// extra hops; on the crossbar none.
	base := DefaultParams(64)
	ring := base
	ring.Topology = Ring
	ring.PerHopSec = 1e-6

	run := func(params Params) float64 {
		sim, err := Run(params, func(pr *Proc) {
			if pr.ID() == 0 {
				pr.Send(32, 0, nil, 8)
			}
			if pr.ID() == 32 {
				pr.Recv(0, 0)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	cross := run(base)
	far := run(ring)
	wantExtra := 31e-6
	if math.Abs((far-cross)-wantExtra) > 1e-12 {
		t.Errorf("ring extra cost = %g, want %g", far-cross, wantExtra)
	}
}

func TestPerHopDefaultsForNonCrossbar(t *testing.T) {
	params := DefaultParams(16)
	params.Topology = Mesh2D
	// PerHopSec deliberately zero: should default to Tau/20.
	sim, err := Run(params, func(pr *Proc) {
		if pr.ID() == 0 {
			pr.Send(15, 0, nil, 0) // (0,0)->(3,3): 6 hops, 5 extra
		}
		if pr.ID() == 15 {
			pr.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Tau + 5*Tau/20
	if math.Abs(sim-want) > 1e-12 {
		t.Errorf("mesh default per-hop sim = %g, want %g", sim, want)
	}
}

func TestValidateTopology(t *testing.T) {
	params := DefaultParams(4)
	params.Topology = Topology(9)
	if err := params.Validate(); err == nil {
		t.Error("unknown topology accepted")
	}
	params = DefaultParams(4)
	params.PerHopSec = -1
	if err := params.Validate(); err == nil {
		t.Error("negative per-hop accepted")
	}
}
