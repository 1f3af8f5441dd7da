package mesh

import (
	"cmp"
	"container/heap"
	"math"
	"slices"
)

// Mesh is the output of the advancing front mesher.
type Mesh struct {
	Verts []Vec3
	Tets  [][4]int32
	// Defects counts front faces that had to be abandoned because no valid
	// apex existed (small voids; zero for well-sized inputs).
	Defects int
	// Steps is the number of advancing iterations taken.
	Steps int
}

// NumTets returns the tetrahedron count — the experiment's workload unit.
func (m *Mesh) NumTets() int { return len(m.Tets) }

// MesherConfig tunes the advancing front process.
type MesherConfig struct {
	// ApexFactor scales the sizing field's h into the apex offset distance.
	ApexFactor float64
	// SnapFactor scales h into the radius within which an ideal apex snaps
	// to an existing active front vertex.
	SnapFactor float64
	// MinQuality rejects tets whose volume is below MinQuality * h^3/6.
	MinQuality float64
	// MaxSteps caps the advancing loop (0 = derive from an element
	// estimate).
	MaxSteps int
}

// DefaultMesherConfig returns the configuration used by the experiments.
func DefaultMesherConfig() MesherConfig {
	return MesherConfig{
		ApexFactor: 0.8,
		SnapFactor: 0.65,
		MinQuality: 0.02,
		MaxSteps:   0,
	}
}

// Generate meshes the box with the sizing field using an advancing front:
// the box surface is triangulated on a conforming lattice, every surface
// triangle (normal inward) seeds the front, and fronts advance and cancel
// until the volume is filled.
func Generate(b Box, f SizingField, cfg MesherConfig) *Mesh {
	return generate(b, f, cfg, cellSizeFor(b, f))
}

// generate is Generate with the spatial index's cell size given.
func generate(b Box, f SizingField, cfg MesherConfig, cellSize float64) *Mesh {
	m := newMesher(b, f, cfg, cellSize)
	m.seedSurface()
	m.advance()
	return &Mesh{Verts: m.verts, Tets: m.tets, Defects: m.defects, Steps: m.steps}
}

type faceKey [3]int32 // sorted vertex triple

type face struct {
	v    [3]int32 // oriented: normal (v1-v0)x(v2-v0) points into unmeshed region
	area float64
	seq  uint64
	dead bool
}

type faceHeap []*face

func (h faceHeap) Len() int { return len(h) }
func (h faceHeap) Less(i, j int) bool {
	if h[i].area != h[j].area {
		return h[i].area < h[j].area
	}
	return h[i].seq < h[j].seq
}
func (h faceHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *faceHeap) Push(x any)   { *h = append(*h, x.(*face)) }
func (h *faceHeap) Pop() any     { old := *h; n := len(old); f := old[n-1]; *h = old[:n-1]; return f }
func keyOf(a, b, c int32) faceKey {
	k := faceKey{a, b, c}
	if k[0] > k[1] {
		k[0], k[1] = k[1], k[0]
	}
	if k[1] > k[2] {
		k[1], k[2] = k[2], k[1]
	}
	if k[0] > k[1] {
		k[0], k[1] = k[1], k[0]
	}
	return k
}

// sameOrientation reports whether oriented triples a and b (same vertex
// set) have equal winding.
func sameOrientation(a, b [3]int32) bool {
	// Rotate b so b[0] == a[0].
	for r := 0; r < 3; r++ {
		if b[0] == a[0] {
			break
		}
		b[0], b[1], b[2] = b[1], b[2], b[0]
	}
	return b[1] == a[1] && b[2] == a[2]
}

type mesher struct {
	box     Box
	sizing  SizingField
	cfg     MesherConfig
	verts   []Vec3
	tets    [][4]int32
	front   map[faceKey]*face
	heap    faceHeap
	seq     uint64
	defects int
	steps   int

	// Spatial index: a dense grid of cubes of side cellSize over the box.
	// It only narrows which vertices and tets a query examines; every query
	// answers as if it had examined all of them (see overlapsMesh and
	// nearActive), so the cell size changes speed, never the mesh.
	cellSize float64
	dims     [3]int
	// active buckets the vertices currently referenced by front faces, refs
	// counts those references per vertex.
	active [][]int32
	refs   []int32
	// tetCells lists each tet in every cell its bounding box overlaps;
	// centroidCells lists it once, in the cell holding its centroid.
	tetCells      [][]int32
	centroidCells [][]int32
	tetInfo       []tetInfo
	// nearActive's reused buffers.
	near  []nearCand
	cands []int32
}

// tetInfo caches what the occupancy tests need of a registered tet.
type tetInfo struct {
	lo, hi   Vec3 // bounding box
	centroid Vec3
	vol      float64
}

type nearCand struct {
	v int32
	d float64
}

// maxGridCellsPerElement bounds the dense grid at this many cells per
// expected element, so a fine h in one corner of a large box cannot make
// the grid huge.
const maxGridCellsPerElement = 8

func newMesher(b Box, f SizingField, cfg MesherConfig, cellSize float64) *mesher {
	if cfg.ApexFactor <= 0 {
		maxSteps := cfg.MaxSteps
		cfg = DefaultMesherConfig()
		cfg.MaxSteps = maxSteps
	}
	m := &mesher{
		box:      b,
		sizing:   f,
		cfg:      cfg,
		front:    make(map[faceKey]*face),
		cellSize: cellSize,
	}
	d := gridDims(b, cellSize)
	m.dims = [3]int{int(d[0]), int(d[1]), int(d[2])}
	n := m.dims[0] * m.dims[1] * m.dims[2]
	m.active = make([][]int32, n)
	m.tetCells = make([][]int32, n)
	m.centroidCells = make([][]int32, n)
	return m
}

// finestH returns the smallest h the sizing field takes on a 5x5x5 sample
// lattice of the box: the natural cell size of the spatial index.
func finestH(b Box, f SizingField) float64 {
	s := b.Size()
	h := math.Inf(1)
	for i := 0; i <= 4; i++ {
		for j := 0; j <= 4; j++ {
			for k := 0; k <= 4; k++ {
				h = math.Min(h, f.H(Vec3{
					b.Lo.X + s.X*float64(i)/4,
					b.Lo.Y + s.Y*float64(j)/4,
					b.Lo.Z + s.Z*float64(k)/4,
				}))
			}
		}
	}
	return h
}

// gridDims returns the cell counts per axis of a grid of the given cell
// size over b, in floating point so that a tiny cell size cannot overflow.
func gridDims(b Box, cellSize float64) [3]float64 {
	s := b.Size()
	return [3]float64{
		math.Floor(s.X/cellSize) + 1,
		math.Floor(s.Y/cellSize) + 1,
		math.Floor(s.Z/cellSize) + 1,
	}
}

// gridCells returns the cell count of a grid of the given cell size over b.
func gridCells(b Box, cellSize float64) float64 {
	d := gridDims(b, cellSize)
	return d[0] * d[1] * d[2]
}

// cellSizeFor returns the spatial index's cell size for meshing b: the
// finest sampled h, coarsened until the grid holds at most
// maxGridCellsPerElement cells per expected element.
func cellSizeFor(b Box, f SizingField) float64 {
	cs := finestH(b, f)
	limit := math.Max(1, maxGridCellsPerElement*EstimateElements(b, f, 8))
	for gridCells(b, cs) > limit {
		cs *= 1.25
	}
	return cs
}

// axisCell returns the grid coordinate of x along an axis starting at lo
// with n cells, clamped to the grid.
func (m *mesher) axisCell(x, lo float64, n int) int {
	c := math.Floor((x - lo) / m.cellSize)
	if c < 0 {
		return 0
	}
	if c >= float64(n) {
		return n - 1
	}
	return int(c)
}

func (m *mesher) cellCoord(p Vec3) [3]int {
	return [3]int{
		m.axisCell(p.X, m.box.Lo.X, m.dims[0]),
		m.axisCell(p.Y, m.box.Lo.Y, m.dims[1]),
		m.axisCell(p.Z, m.box.Lo.Z, m.dims[2]),
	}
}

func (m *mesher) cellIndex(c [3]int) int { return (c[2]*m.dims[1]+c[1])*m.dims[0] + c[0] }

func (m *mesher) cellOf(p Vec3) int { return m.cellIndex(m.cellCoord(p)) }

// cellsIn calls fn with the index of every cell the box [lo, hi] overlaps
// and reports whether some call returned true, which stops the scan. Since
// cell coordinates are monotone in position, a point inside [lo, hi] lies
// in one of these cells.
func (m *mesher) cellsIn(lo, hi Vec3, fn func(cell int) bool) bool {
	cl, ch := m.cellCoord(lo), m.cellCoord(hi)
	for z := cl[2]; z <= ch[2]; z++ {
		for y := cl[1]; y <= ch[1]; y++ {
			row := m.cellIndex([3]int{0, y, z})
			for x := cl[0]; x <= ch[0]; x++ {
				if fn(row + x) {
					return true
				}
			}
		}
	}
	return false
}

// inBox reports whether p lies in the closed box [lo, hi].
func inBox(p, lo, hi Vec3) bool {
	return p.X >= lo.X && p.X <= hi.X &&
		p.Y >= lo.Y && p.Y <= hi.Y &&
		p.Z >= lo.Z && p.Z <= hi.Z
}

// pointInTet reports whether p lies strictly inside registered tet ti
// (boundary points, e.g. shared vertices and faces of adjacent tets, do not
// count). A point outside the tet's bounding box is outside the tet, so one
// of its sub-volumes is negative up to rounding error, far below the 1e-7
// relative tolerance: rejecting it first changes no answer.
func (m *mesher) pointInTet(p Vec3, ti int32) bool {
	info := &m.tetInfo[ti]
	if !inBox(p, info.lo, info.hi) {
		return false
	}
	t := m.tets[ti]
	a, b, c, d := m.verts[t[0]], m.verts[t[1]], m.verts[t[2]], m.verts[t[3]]
	return pointInTetVol(p, a, b, c, d, info.vol)
}

// pointInTetVol reports whether p lies strictly inside tet (a, b, c, d) of
// volume vol = TetVolume(a, b, c, d).
func pointInTetVol(p, a, b, c, d Vec3, vol float64) bool {
	eps := 1e-7 * vol
	return TetVolume(p, b, c, d) >= eps &&
		TetVolume(a, p, c, d) >= eps &&
		TetVolume(a, b, p, d) >= eps &&
		TetVolume(a, b, c, p) >= eps
}

// occupied reports whether p lies inside any existing tetrahedron. Every
// tet containing p has p in its bounding box, so it is listed in p's cell.
func (m *mesher) occupied(p Vec3) bool {
	for _, ti := range m.tetCells[m.cellOf(p)] {
		if m.pointInTet(p, ti) {
			return true
		}
	}
	return false
}

// overlapsMesh heuristically tests whether candidate tet cand interpenetrates
// already meshed space: a stencil of interior sample points of cand must all
// be free, and no existing tet's centroid may lie inside cand.
// (Cheaper than exact face-face intersection; combined with the front
// orientation rules it keeps meshes overlap-free in practice — the test
// suite asserts total volume never exceeds the box.)
func (m *mesher) overlapsMesh(cand [4]int32) bool {
	a, b, c, d := m.verts[cand[0]], m.verts[cand[1]], m.verts[cand[2]], m.verts[cand[3]]
	g := a.Add(b).Add(c).Add(d).Scale(0.25)
	var samples [13]Vec3
	samples[0] = g
	for i, v := range [4]Vec3{a, b, c, d} {
		samples[1+2*i] = g.Add(v.Sub(g).Scale(0.55))
		samples[2+2*i] = g.Add(v.Sub(g).Scale(0.9))
	}
	// Face centroids nudged inward.
	faces := [4][3]Vec3{{b, c, d}, {a, c, d}, {a, b, d}, {a, b, c}}
	for i, fc := range faces {
		fg := fc[0].Add(fc[1]).Add(fc[2]).Scale(1.0 / 3)
		samples[9+i] = fg.Add(g.Sub(fg).Scale(0.1))
	}
	for _, p := range samples {
		if m.occupied(p) {
			return true
		}
	}
	// Symmetric: existing tets poking into the candidate. A centroid inside
	// cand lies in cand's bounding box, so its cell is among those scanned,
	// and each tet is listed in exactly one centroid cell.
	lo, hi := bounds(a, b, c, d)
	vol := TetVolume(a, b, c, d)
	return m.cellsIn(lo, hi, func(cell int) bool {
		for _, ti := range m.centroidCells[cell] {
			tg := m.tetInfo[ti].centroid
			if inBox(tg, lo, hi) && pointInTetVol(tg, a, b, c, d, vol) {
				return true
			}
		}
		return false
	})
}

// bounds returns the bounding box of four points.
func bounds(a, b, c, d Vec3) (lo, hi Vec3) {
	lo, hi = a, a
	for _, p := range [3]Vec3{b, c, d} {
		lo.X, lo.Y, lo.Z = math.Min(lo.X, p.X), math.Min(lo.Y, p.Y), math.Min(lo.Z, p.Z)
		hi.X, hi.Y, hi.Z = math.Max(hi.X, p.X), math.Max(hi.Y, p.Y), math.Max(hi.Z, p.Z)
	}
	return lo, hi
}

// registerTet adds tet ti to the occupancy index.
func (m *mesher) registerTet(ti int32) {
	t := m.tets[ti]
	a, b, c, d := m.verts[t[0]], m.verts[t[1]], m.verts[t[2]], m.verts[t[3]]
	info := tetInfo{
		centroid: a.Add(b).Add(c).Add(d).Scale(0.25),
		vol:      TetVolume(a, b, c, d),
	}
	info.lo, info.hi = bounds(a, b, c, d)
	m.tetInfo = append(m.tetInfo, info)
	m.cellsIn(info.lo, info.hi, func(cell int) bool {
		m.tetCells[cell] = append(m.tetCells[cell], ti)
		return false
	})
	cell := m.cellOf(info.centroid)
	m.centroidCells[cell] = append(m.centroidCells[cell], ti)
}

func (m *mesher) retain(v int32) {
	if int(v) >= len(m.refs) {
		m.refs = append(m.refs, make([]int32, int(v)+1-len(m.refs))...)
	}
	if m.refs[v] == 0 {
		c := m.cellOf(m.verts[v])
		m.active[c] = append(m.active[c], v)
	}
	m.refs[v]++
}

func (m *mesher) release(v int32) {
	m.refs[v]--
	if m.refs[v] > 0 {
		return
	}
	c := m.cellOf(m.verts[v])
	list := m.active[c]
	for i, x := range list {
		if x == v {
			list[i] = list[len(list)-1]
			m.active[c] = list[:len(list)-1]
			break
		}
	}
}

// activeWithin calls fn with every active front vertex within radius of p
// and its distance, in no particular order, until fn returns true. A vertex
// within radius lies in the cells of the cube [p-radius, p+radius]; the
// cube is padded far beyond rounding error so the distance test alone
// decides.
func (m *mesher) activeWithin(p Vec3, radius float64, fn func(v int32, d float64) bool) bool {
	r := radius * (1 + 1e-9)
	pad := Vec3{r, r, r}
	return m.cellsIn(p.Sub(pad), p.Add(pad), func(cell int) bool {
		for _, v := range m.active[cell] {
			if d := m.verts[v].Dist(p); d <= radius && fn(v, d) {
				return true
			}
		}
		return false
	})
}

// nearActive returns the active front vertices within radius of p, nearest
// first (deterministic: distance then index order). The slice is reused by
// the next call.
func (m *mesher) nearActive(p Vec3, radius float64) []int32 {
	m.near = m.near[:0]
	m.activeWithin(p, radius, func(v int32, d float64) bool {
		m.near = append(m.near, nearCand{v, d})
		return false
	})
	slices.SortFunc(m.near, func(x, y nearCand) int {
		if c := cmp.Compare(x.d, y.d); c != 0 {
			return c
		}
		return cmp.Compare(x.v, y.v)
	})
	m.cands = m.cands[:0]
	for _, c := range m.near {
		m.cands = append(m.cands, c.v)
	}
	return m.cands
}

// addFace inserts an oriented face into the front, cancelling against an
// opposite-oriented twin.
func (m *mesher) addFace(v [3]int32) {
	k := keyOf(v[0], v[1], v[2])
	if tw, ok := m.front[k]; ok {
		if sameOrientation(tw.v, v) {
			// Two fronts claim the same region from the same side: a local
			// tangle. Keep one; count it.
			m.defects++
			return
		}
		// Opposite twin: the gap between two fronts closed here.
		tw.dead = true
		delete(m.front, k)
		for _, x := range tw.v {
			m.release(x)
		}
		return
	}
	f := &face{v: v, area: TriArea(m.verts[v[0]], m.verts[v[1]], m.verts[v[2]])}
	m.seq++
	f.seq = m.seq
	m.front[k] = f
	heap.Push(&m.heap, f)
	for _, x := range v {
		m.retain(x)
	}
}

func (m *mesher) removeFace(f *face) {
	f.dead = true
	delete(m.front, keyOf(f.v[0], f.v[1], f.v[2]))
	for _, x := range f.v {
		m.release(x)
	}
}

// seedSurface triangulates the box surface on a conforming lattice whose
// resolution follows the finest sizing found on the surface, and seeds the
// front with inward-pointing triangles.
func (m *mesher) seedSurface() {
	size := m.box.Size()
	// Finest h on the surface governs the lattice (conformity across the
	// six faces requires a single lattice).
	minH := math.Inf(1)
	for i := 0; i <= 4; i++ {
		for j := 0; j <= 4; j++ {
			for _, p := range surfaceSamples(m.box, i, j) {
				minH = math.Min(minH, m.sizing.H(p))
			}
		}
	}
	n := func(extent float64) int {
		k := int(math.Ceil(extent / minH))
		if k < 1 {
			k = 1
		}
		return k
	}
	nx, ny, nz := n(size.X), n(size.Y), n(size.Z)
	// Lattice vertices on the surface only.
	idx := make(map[[3]int]int32)
	vat := func(i, j, k int) int32 {
		key := [3]int{i, j, k}
		if v, ok := idx[key]; ok {
			return v
		}
		p := Vec3{
			m.box.Lo.X + size.X*float64(i)/float64(nx),
			m.box.Lo.Y + size.Y*float64(j)/float64(ny),
			m.box.Lo.Z + size.Z*float64(k)/float64(nz),
		}
		v := int32(len(m.verts))
		m.verts = append(m.verts, p)
		idx[key] = v
		return v
	}
	// quad emits two triangles for the surface quad (a,b,c,d) wound so that
	// the normal points inward; inward is supplied per box face.
	quad := func(a, b, c, d int32) {
		m.addFace([3]int32{a, b, c})
		m.addFace([3]int32{a, c, d})
	}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			// z = lo (inward +z): counterclockwise seen from +z.
			quad(vat(i, j, 0), vat(i+1, j, 0), vat(i+1, j+1, 0), vat(i, j+1, 0))
			// z = hi (inward -z): reversed.
			quad(vat(i, j, nz), vat(i, j+1, nz), vat(i+1, j+1, nz), vat(i+1, j, nz))
		}
	}
	for i := 0; i < nx; i++ {
		for k := 0; k < nz; k++ {
			// y = lo (inward +y).
			quad(vat(i, 0, k), vat(i, 0, k+1), vat(i+1, 0, k+1), vat(i+1, 0, k))
			// y = hi (inward -y).
			quad(vat(i, ny, k), vat(i+1, ny, k), vat(i+1, ny, k+1), vat(i, ny, k+1))
		}
	}
	for j := 0; j < ny; j++ {
		for k := 0; k < nz; k++ {
			// x = lo (inward +x).
			quad(vat(0, j, k), vat(0, j+1, k), vat(0, j+1, k+1), vat(0, j, k+1))
			// x = hi (inward -x).
			quad(vat(nx, j, k), vat(nx, j, k+1), vat(nx, j+1, k+1), vat(nx, j+1, k))
		}
	}
}

// surfaceSamples returns sample points on the box surface for lattice-size
// estimation.
func surfaceSamples(b Box, i, j int) []Vec3 {
	s := b.Size()
	u, v := float64(i)/4, float64(j)/4
	return []Vec3{
		{b.Lo.X + u*s.X, b.Lo.Y + v*s.Y, b.Lo.Z},
		{b.Lo.X + u*s.X, b.Lo.Y + v*s.Y, b.Hi.Z},
		{b.Lo.X + u*s.X, b.Lo.Y, b.Lo.Z + v*s.Z},
		{b.Lo.X + u*s.X, b.Hi.Y, b.Lo.Z + v*s.Z},
		{b.Lo.X, b.Lo.Y + u*s.Y, b.Lo.Z + v*s.Z},
		{b.Hi.X, b.Lo.Y + u*s.Y, b.Lo.Z + v*s.Z},
	}
}

// advance runs the main loop: smallest front face first, place or snap an
// apex, build the tetrahedron, update the front.
func (m *mesher) advance() {
	maxSteps := m.cfg.MaxSteps
	if maxSteps == 0 {
		est := EstimateElements(m.box, m.sizing, 8)
		maxSteps = 80*int(est) + 200000
	}
	for len(m.front) > 0 && m.steps < maxSteps {
		f := heap.Pop(&m.heap).(*face)
		if f.dead {
			continue
		}
		m.steps++
		if !m.buildTet(f) {
			m.defects++
			m.removeFace(f)
		}
	}
	// Any faces left when the step budget runs out are defects.
	m.defects += len(m.front)
}

// buildTet attempts to close face f with an apex vertex. It returns false
// if no candidate yields an acceptable tetrahedron.
func (m *mesher) buildTet(f *face) bool {
	a, b, c := m.verts[f.v[0]], m.verts[f.v[1]], m.verts[f.v[2]]
	g := a.Add(b).Add(c).Scale(1.0 / 3)
	n := TriNormal(a, b, c)
	h := m.sizing.H(g)
	ideal := g.Add(n.Scale(m.cfg.ApexFactor * h))

	// Candidates: nearby active front vertices (nearest first), then the
	// fresh ideal point if it is inside the domain.
	cands := m.nearActive(ideal, m.cfg.SnapFactor*h)
	// A second, wider net catches closing fronts.
	if len(cands) == 0 {
		cands = m.nearActive(ideal, 1.3*h)
	}
	minVol := m.cfg.MinQuality * h * h * h / 6
	try := func(apex int32) bool {
		if apex == f.v[0] || apex == f.v[1] || apex == f.v[2] {
			return false
		}
		p := m.verts[apex]
		vol := TetVolume(a, b, c, p)
		if vol < minVol {
			return false
		}
		// Reject if any side face would duplicate an existing front face
		// with the same orientation (local tangle).
		for _, sf := range sideFaces(f.v, apex, m.verts) {
			k := keyOf(sf[0], sf[1], sf[2])
			if tw, ok := m.front[k]; ok && sameOrientation(tw.v, sf) {
				return false
			}
		}
		// Occupancy: the new tet must not overlap meshed space and must not
		// swallow an active front vertex.
		cand := [4]int32{f.v[0], f.v[1], f.v[2], apex}
		centroid := a.Add(b).Add(c).Add(p).Scale(0.25)
		if m.overlapsMesh(cand) {
			return false
		}
		maxEdge := 0.0
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				maxEdge = math.Max(maxEdge, m.verts[cand[i]].Dist(m.verts[cand[j]]))
			}
		}
		swallows := m.activeWithin(centroid, maxEdge, func(v int32, _ float64) bool {
			return v != cand[0] && v != cand[1] && v != cand[2] && v != cand[3] &&
				pointInTetVol(m.verts[v], a, b, c, p, vol)
		})
		if swallows {
			return false
		}
		m.emitTet(f, apex)
		return true
	}
	for _, v := range cands {
		if try(v) {
			return true
		}
	}
	if m.box.Contains(ideal) {
		// No snap: create a fresh vertex, unless it crowds an active vertex
		// (the candidate pass above would have used it).
		v := int32(len(m.verts))
		m.verts = append(m.verts, ideal)
		if try(v) {
			return true
		}
		m.verts = m.verts[:v] // roll back the unused vertex
	}
	// Last resort: a shorter fresh apex (half offset) for faces squeezed
	// near the boundary.
	short := g.Add(n.Scale(0.4 * m.cfg.ApexFactor * h))
	if m.box.Contains(short) {
		v := int32(len(m.verts))
		m.verts = append(m.verts, short)
		if try(v) {
			return true
		}
		m.verts = m.verts[:v]
	}
	return false
}

// sideFaces returns the three new faces of tet (f, apex), each oriented so
// its normal points away from the tetrahedron (into unmeshed space).
func sideFaces(fv [3]int32, apex int32, verts []Vec3) [3][3]int32 {
	var out [3][3]int32
	pairs := [3][2]int32{{fv[0], fv[1]}, {fv[1], fv[2]}, {fv[2], fv[0]}}
	for i, pr := range pairs {
		// Opposite vertex inside the tet is the remaining face vertex.
		opp := fv[(i+2)%3]
		tri := [3]int32{pr[0], pr[1], apex}
		nrm := verts[tri[1]].Sub(verts[tri[0]]).Cross(verts[tri[2]].Sub(verts[tri[0]]))
		if nrm.Dot(verts[opp].Sub(verts[tri[0]])) > 0 {
			tri[1], tri[2] = tri[2], tri[1]
		}
		out[i] = tri
	}
	return out
}

// emitTet records the tetrahedron and updates the front.
func (m *mesher) emitTet(f *face, apex int32) {
	m.tets = append(m.tets, [4]int32{f.v[0], f.v[1], f.v[2], apex})
	m.registerTet(int32(len(m.tets) - 1))
	sides := sideFaces(f.v, apex, m.verts)
	m.removeFace(f)
	for _, sf := range sides {
		m.addFace(sf)
	}
}
