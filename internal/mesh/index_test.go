package mesh

import "testing"

// TestCellSizeIndependence: the spatial index only narrows which tets and
// vertices a query examines, so meshing a crack-refined box with half, the
// same and four times the derived cell size gives the same mesh.
func TestCellSizeIndependence(t *testing.T) {
	crack, subs := meshRealCrack()
	cases := []struct {
		box Box
		f   SizingField
	}{
		{subs[42], crack},
		{unitBox(), Crack{Origin: Vec3{0, 0.5, 0.5}, Dir: Vec3{1, 0, 0}, Length: 0.6, Radius: 0.35, HMin: 0.08, HMax: 0.35}},
	}
	for _, c := range cases {
		cs := cellSizeFor(c.box, c.f)
		want := meshHash(generate(c.box, c.f, DefaultMesherConfig(), cs))
		for _, scale := range []float64{0.5, 4} {
			if got := meshHash(generate(c.box, c.f, DefaultMesherConfig(), scale*cs)); got != want {
				t.Errorf("box %v: cell size %.4f (%.1fx derived) gives a different mesh", c.box, scale*cs, scale)
			}
		}
	}
}

// TestGridSizeGuard: a fine h at the centre of a large box would make a
// grid of h-sized cells huge; the derived cell size is coarsened until the
// grid is bounded by the element estimate, and the mesh is the one the
// unguarded cell size gives.
func TestGridSizeGuard(t *testing.T) {
	b := Box{Hi: Vec3{3, 3, 3}}
	f := Crack{Origin: Vec3{1.5, 1.5, 1.5}, Dir: Vec3{1, 0, 0}, Length: 0.1, Radius: 0.3, HMin: 0.05, HMax: 0.75}
	fine := finestH(b, f)
	if fine != f.HMin {
		t.Fatalf("finest sampled h = %v, want the crack's HMin %v", fine, f.HMin)
	}
	limit := maxGridCellsPerElement * EstimateElements(b, f, 8)
	if gridCells(b, fine) <= 10*limit {
		t.Fatalf("unguarded grid of %.0f cells does not exercise the guard (limit %.0f)", gridCells(b, fine), limit)
	}
	cs := cellSizeFor(b, f)
	m := newMesher(b, f, DefaultMesherConfig(), cs)
	if n := float64(len(m.tetCells)); n > limit {
		t.Fatalf("guarded grid has %.0f cells, limit %.0f", n, limit)
	}
	guarded := generate(b, f, DefaultMesherConfig(), cs)
	t.Logf("cells %.0f -> %.0f (limit %.0f), %d tets", gridCells(b, fine), gridCells(b, cs), limit, guarded.NumTets())
	if guarded.NumTets() == 0 {
		t.Fatal("no tetrahedra generated")
	}
	if meshHash(guarded) != meshHash(generate(b, f, DefaultMesherConfig(), fine)) {
		t.Fatal("guarded cell size changes the mesh")
	}
}

// TestZeroConfigKeepsMaxSteps: a config without an ApexFactor takes the
// default tuning but keeps the caller's step cap.
func TestZeroConfigKeepsMaxSteps(t *testing.T) {
	m := Generate(unitBox(), Uniform{0.2}, MesherConfig{MaxSteps: 10})
	if m.Steps != 10 {
		t.Fatalf("steps = %d, want the cap of 10", m.Steps)
	}
	cfg := DefaultMesherConfig()
	cfg.MaxSteps = 10
	if meshHash(m) != meshHash(Generate(unitBox(), Uniform{0.2}, cfg)) {
		t.Fatal("zero config differs from the default config with the same cap")
	}
}
