package mesh

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// meshHash fingerprints every field of a Mesh: vertex coordinates bit for
// bit, tet vertex indices, defects and steps.
func meshHash(m *Mesh) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	put(uint64(len(m.Verts)))
	for _, v := range m.Verts {
		put(math.Float64bits(v.X))
		put(math.Float64bits(v.Y))
		put(math.Float64bits(v.Z))
	}
	put(uint64(len(m.Tets)))
	for _, t := range m.Tets {
		for _, v := range t {
			put(uint64(uint32(v)))
		}
	}
	put(uint64(m.Defects))
	put(uint64(m.Steps))
	return hex.EncodeToString(h.Sum(nil))
}

// meshRealCrack is the crack of the mesh experiment's first iteration when
// it runs two iterations (bench.DefaultMeshExpConfig with Iterations = 2,
// as the mesh-real host benchmark runs it), over the experiment's 2x1x1
// domain decomposed 8x4x4.
func meshRealCrack() (Crack, []Box) {
	domain := Box{Hi: Vec3{2, 1, 1}}
	diag := domain.Size()
	full := diag.Norm()
	crack := Crack{
		Origin: domain.Lo,
		Dir:    diag.Scale(1 / full),
		Length: full * 0.5 * 0.95,
		Radius: 0.16 * full,
		HMin:   0.035,
		HMax:   0.25,
	}
	return crack, Decompose(domain, 8, 4, 4)
}

// TestGenerateGolden pins the mesher's exact output. The hashes were
// recorded before the spatial index was rebuilt around a dense grid; the
// index decides only which tets and vertices a query looks at, never the
// answer, so any change to these hashes is a change in mesher behaviour.
func TestGenerateGolden(t *testing.T) {
	crack, subs := meshRealCrack()
	cases := []struct {
		name string
		box  Box
		f    SizingField
		tets int
		hash string
	}{
		{"uniform-0.25", unitBox(), Uniform{0.25}, 304, "3c174021ac074cdb6ce3e46ad16c3d8e0233aa43f58be1b8a1d2b7b96d463841"},
		{"mesh-real-sub0", subs[0], crack, 1247, "deaedd221f178ed836be3d819935a17d25c1b73335e8e583312fcf10f94b4770"},
		{"mesh-real-sub1", subs[1], crack, 1224, "375dc9d35d29b117e54c5ac677ba8c0db0bd62f9dde6a267da84cc8f3d6aef9a"},
		{"mesh-real-sub42", subs[42], crack, 1247, "6b00b04010b4847ff970398ececf67a3ebc50464f3809b76db5aad3926040972"},
		{"mesh-real-sub43", subs[43], crack, 1224, "c46c9dbfdca5899c2c6cea63a4b4f2b479188f4713d819794e8377eed1249ca9"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := Generate(c.box, c.f, DefaultMesherConfig())
			got := meshHash(m)
			if m.NumTets() != c.tets {
				t.Errorf("tets = %d, want %d", m.NumTets(), c.tets)
			}
			if got != c.hash {
				t.Errorf("hash = %s, want %s", got, c.hash)
			}
		})
	}
}
