package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"pagerankvm/internal/ranktable"
)

// parentRegistryDigest is registryDigest of the catalog registry as
// the commit before the single-sweep absorption and the chunk-reduced
// move table computed it. Any change to a score, a move's score or
// count, or a materialized assignment changes it.
const parentRegistryDigest = "cceba8ab9c9808b7acea0f9b3937c8bd36dc0c88b1b3316f7020456d2e71dbdf"

// registryDigest hashes a catalog registry in a fixed order: for every
// PM type and every group table of its factored ranker, the scores in
// node order, then for every (node, VM type) the BestMove score and
// count, then every Materialize output.
func registryDigest(t *testing.T, cat *Catalog, reg *ranktable.Registry) string {
	t.Helper()
	h := sha256.New()
	for _, pm := range cat.PMs {
		r, ok := reg.Get(pm.Name)
		if !ok {
			t.Fatalf("no ranker for %s", pm.Name)
		}
		f, ok := r.(*ranktable.Factored)
		if !ok {
			t.Fatalf("%s: ranker is %T, want *ranktable.Factored", pm.Name, r)
		}
		shape := f.Shape()
		for gi := 0; gi < shape.NumGroups(); gi++ {
			tb := f.GroupTable(gi)
			var refs []ranktable.TypeRef
			for _, vm := range cat.VMs {
				d, _ := cat.Demand(pm.Name, vm.Name)
				if d.Validate(shape) != nil {
					continue
				}
				p, ok := d.Project(shape.Group(gi).Name)
				if !ok {
					continue
				}
				ref, ok := tb.ResolveType(p)
				if !ok {
					t.Fatalf("%s group %d: type %s does not resolve", pm.Name, gi, vm.Name)
				}
				refs = append(refs, ref)
			}
			ids := make([]int32, 1)
			for i := 0; i < tb.Len(); i++ {
				ids[0] = int32(i)
				s, _ := tb.ScoreIDs(ids)
				putU64(h, math.Float64bits(s))
			}
			for i := 0; i < tb.Len(); i++ {
				ids[0] = int32(i)
				for _, ref := range refs {
					s, n, ok := tb.BestMove(ids, ref)
					putU64(h, math.Float64bits(s))
					putU64(h, uint64(n))
					putBool(h, ok)
				}
			}
			for i := 0; i < tb.Len(); i++ {
				ids[0] = int32(i)
				for _, ref := range refs {
					a, ok := tb.Materialize(ids, ref)
					putBool(h, ok)
					putU64(h, uint64(len(a)))
					for _, du := range a {
						putU64(h, uint64(du.Dim))
						putU64(h, uint64(du.Units))
					}
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func putBool(h hash.Hash, v bool) {
	if v {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}

// TestRegistryDigestMatchesParent pins the cold registry build bit for
// bit to the parent commit's: scores, every precomputed move and every
// representative assignment.
func TestRegistryDigestMatchesParent(t *testing.T) {
	cat, err := AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := cat.BuildRegistry(ranktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := registryDigest(t, cat, reg); got != parentRegistryDigest {
		t.Fatalf("registry digest %s, want the parent's %s", got, parentRegistryDigest)
	}
}
