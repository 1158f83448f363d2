package ranktable

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"pagerankvm/internal/lattice"
	"pagerankvm/internal/pagerank"
	"pagerankvm/internal/resource"
)

func paperVMTypes() []resource.VMType {
	return []resource.VMType{
		resource.NewVMType("[1,1]", resource.Demand{Group: "cpu", Units: []int{1, 1}}),
		resource.NewVMType("[1,1,1,1]", resource.Demand{Group: "cpu", Units: []int{1, 1, 1, 1}}),
	}
}

func paperTable(t testing.TB) *Table {
	t.Helper()
	shape := resource.MustShape(resource.Group{Name: "cpu", Dims: 4, Cap: 4})
	table, err := NewJoint(shape, paperVMTypes(), Options{})
	if err != nil {
		t.Fatalf("NewJoint: %v", err)
	}
	return table
}

func TestJointBuildStats(t *testing.T) {
	table := paperTable(t)
	stats := table.Stats()
	if stats.Nodes != 70 {
		t.Errorf("Nodes = %d, want 70", stats.Nodes)
	}
	if stats.Edges == 0 {
		t.Error("Edges = 0")
	}
	if !stats.Converged {
		t.Error("PageRank did not converge")
	}
	if table.Len() != 70 {
		t.Errorf("Len = %d, want 70", table.Len())
	}
}

// The paper's Figure 2 claim: with VM types {[1,1],[1,1,1,1]} on a
// [4,4,4,4]-capacity PM, profile [3,3,3,3] has higher quality than
// [4,4,2,2] because it has more ways to develop to the best profile.
func TestJointFigure2Ordering(t *testing.T) {
	table := paperTable(t)
	balanced, ok := table.Score(resource.Vec{3, 3, 3, 3})
	if !ok {
		t.Fatal("no score for [3,3,3,3]")
	}
	skewed, ok := table.Score(resource.Vec{4, 4, 2, 2})
	if !ok {
		t.Fatal("no score for [4,4,2,2]")
	}
	if balanced <= skewed {
		t.Fatalf("score([3,3,3,3])=%v should exceed score([4,4,2,2])=%v", balanced, skewed)
	}
}

// The motivating example of Section III-B: after accommodating a VM,
// [3,3,2,2] is the better host option than [4,3,3,3], because
// [4,3,3,3] can never develop to the best profile (BPRU discount).
func TestJointMotivationOrdering(t *testing.T) {
	table := paperTable(t)
	good, _ := table.Score(resource.Vec{3, 3, 2, 2})
	bad, _ := table.Score(resource.Vec{4, 3, 3, 3})
	if good <= bad {
		t.Fatalf("score([3,3,2,2])=%v should exceed score([4,3,3,3])=%v", good, bad)
	}
}

// Under the default absorption mode the rank is the damped
// probability-like value of reaching the best profile: the best
// profile itself sits at the top, dead ends are discounted, and the
// empty profile ranks low (it is many damped steps away from full).
func TestJointRankStructure(t *testing.T) {
	table := paperTable(t)
	top := table.Top(1)
	if len(top) != 1 {
		t.Fatalf("Top(1) returned %d entries", len(top))
	}
	if !top[0].Profile.Equal(resource.Vec{4, 4, 4, 4}) {
		t.Fatalf("top profile = %v, want the best profile", top[0].Profile)
	}
	best, _ := table.Score(resource.Vec{4, 4, 4, 4})
	deadEnd, _ := table.Score(resource.Vec{3, 4, 4, 4})
	if best <= deadEnd {
		t.Fatalf("best profile %v should outrank dead end %v", best, deadEnd)
	}
	empty, _ := table.Score(resource.Vec{0, 0, 0, 0})
	nearFull, _ := table.Score(resource.Vec{3, 3, 3, 3})
	if empty >= nearFull {
		t.Fatalf("empty profile %v should rank below a clean near-full profile %v", empty, nearFull)
	}
}

// Known absorption values on the paper's Figure 2 lattice with
// d = 0.85, rewardExp = 8 (hand-computed in DESIGN.md):
// V([4,4,3,3]) = 0.85, V([3,3,3,3]) = 0.85*(0.85+1)/2 = 0.78625,
// V([4,4,2,2]) = 0.85^2 = 0.7225.
func TestJointAbsorptionKnownValues(t *testing.T) {
	table := paperTable(t)
	tests := []struct {
		give resource.Vec
		want float64
	}{
		{give: resource.Vec{4, 4, 4, 4}, want: 1},
		{give: resource.Vec{4, 4, 3, 3}, want: 0.85},
		{give: resource.Vec{3, 3, 3, 3}, want: 0.78625},
		{give: resource.Vec{4, 4, 2, 2}, want: 0.7225},
	}
	for _, tt := range tests {
		got, ok := table.Score(tt.give)
		if !ok {
			t.Fatalf("no score for %v", tt.give)
		}
		if diff := got - tt.want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("score(%v) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

// The PageRank modes are the literal (and reversed) Equ. (12)
// readings; they exist for the interpretation ablation and produce
// different orderings (the forward one fails the paper's own Figure 2
// comparison — see DESIGN.md).
func TestJointPageRankModesDiffer(t *testing.T) {
	shape := resource.MustShape(resource.Group{Name: "cpu", Dims: 4, Cap: 4})
	fwd, err := NewJoint(shape, paperVMTypes(), Options{Mode: ModeForwardPR})
	if err != nil {
		t.Fatal(err)
	}
	balanced, _ := fwd.Score(resource.Vec{3, 3, 3, 3})
	skewed, _ := fwd.Score(resource.Vec{4, 4, 2, 2})
	if balanced >= skewed {
		t.Fatalf("forward mode unexpectedly matches Figure 2: %v vs %v", balanced, skewed)
	}
	rev, err := NewJoint(shape, paperVMTypes(), Options{Mode: ModeReversePR})
	if err != nil {
		t.Fatal(err)
	}
	balanced, _ = rev.Score(resource.Vec{3, 3, 3, 3})
	skewed, _ = rev.Score(resource.Vec{4, 4, 2, 2})
	if balanced <= skewed {
		t.Fatalf("reverse mode should match Figure 2: %v vs %v", balanced, skewed)
	}
	if ModeForwardPR.String() != "forward-pr" || ModeReversePR.String() != "reverse-pr" ||
		ModeAbsorption.String() != "absorption" {
		t.Error("Mode.String broken")
	}
}

func TestJointScoresPermutationInvariant(t *testing.T) {
	table := paperTable(t)
	a, okA := table.Score(resource.Vec{4, 2, 3, 1})
	b, okB := table.Score(resource.Vec{1, 2, 3, 4})
	if !okA || !okB || a != b {
		t.Fatalf("permuted profiles score differently: %v vs %v", a, b)
	}
}

func TestJointScoreOutOfLattice(t *testing.T) {
	table := paperTable(t)
	if _, ok := table.Score(resource.Vec{5, 0, 0, 0}); ok {
		t.Error("scored out-of-capacity profile")
	}
	if _, ok := table.Score(resource.Vec{1, 1}); ok {
		t.Error("scored wrong-length profile")
	}
}

func TestJointScoresPositive(t *testing.T) {
	table := paperTable(t)
	for _, e := range table.Top(0) {
		if e.Score < 0 {
			t.Fatalf("negative score for %v: %v", e.Profile, e.Score)
		}
	}
}

func TestDisableBPRU(t *testing.T) {
	shape := resource.MustShape(resource.Group{Name: "cpu", Dims: 4, Cap: 4})
	with, err := NewJoint(shape, paperVMTypes(), Options{Mode: ModeReversePR})
	if err != nil {
		t.Fatal(err)
	}
	without, err := NewJoint(shape, paperVMTypes(), Options{Mode: ModeReversePR, DisableBPRU: true})
	if err != nil {
		t.Fatal(err)
	}
	// [4,3,3,3] is a dead end (cannot reach the best profile):
	// BPRU < 1 discounts it, so the raw rank must strictly exceed the
	// discounted score.
	raw, _ := without.Score(resource.Vec{4, 3, 3, 3})
	discounted, _ := with.Score(resource.Vec{4, 3, 3, 3})
	if discounted >= raw {
		t.Fatalf("BPRU discount missing: discounted=%v raw=%v", discounted, raw)
	}
	// The best profile has BPRU exactly 1: identical scores up to
	// normalization drift... the ranks themselves are identical runs,
	// so equality holds exactly.
	rawBest, _ := without.Score(resource.Vec{4, 4, 4, 4})
	discBest, _ := with.Score(resource.Vec{4, 4, 4, 4})
	if rawBest != discBest {
		t.Fatalf("best profile should be undiscounted: %v vs %v", discBest, rawBest)
	}
}

func TestFactoredMatchesJointOnSingleGroup(t *testing.T) {
	// With a single group, Factored and Joint must agree exactly.
	shape := resource.MustShape(resource.Group{Name: "cpu", Dims: 4, Cap: 4})
	joint, err := NewJoint(shape, paperVMTypes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	factored, err := NewFactored(shape, paperVMTypes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := make(resource.Vec, 4)
		for i := range p {
			p[i] = r.Intn(5)
		}
		a, okA := joint.Score(p)
		b, okB := factored.Score(p)
		return okA == okB && a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestFactoredMultiGroup(t *testing.T) {
	shape := resource.MustShape(
		resource.Group{Name: "cpu", Dims: 2, Cap: 4},
		resource.Group{Name: "mem", Dims: 1, Cap: 4},
	)
	types := []resource.VMType{
		resource.NewVMType("a",
			resource.Demand{Group: "cpu", Units: []int{1, 1}},
			resource.Demand{Group: "mem", Units: []int{1}},
		),
		resource.NewVMType("b", resource.Demand{Group: "mem", Units: []int{2}}),
	}
	f, err := NewFactored(shape, types, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, ok := f.Score(resource.Vec{4, 4, 4})
	if !ok {
		t.Fatal("no score for full profile")
	}
	if full <= 0 {
		t.Fatalf("full profile score = %v", full)
	}
	// Better-balanced cpu beats skewed cpu at equal mem.
	bal, _ := f.Score(resource.Vec{2, 2, 2})
	skew, _ := f.Score(resource.Vec{4, 0, 2})
	if bal <= skew {
		t.Fatalf("balanced=%v should beat skewed=%v", bal, skew)
	}
	if _, ok := f.Score(resource.Vec{1, 1}); ok {
		t.Error("scored wrong-length profile")
	}
	if _, ok := f.Score(resource.Vec{5, 0, 0}); ok {
		t.Error("scored out-of-lattice profile")
	}
	if f.GroupTable(0) == nil || f.GroupTable(1) == nil {
		t.Error("missing group tables")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	table := paperTable(t)
	var buf bytes.Buffer
	if err := table.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadTable(&buf)
	if err != nil {
		t.Fatalf("LoadTable: %v", err)
	}
	if loaded.Len() != table.Len() {
		t.Fatalf("loaded %d entries, want %d", loaded.Len(), table.Len())
	}
	for _, e := range table.Top(0) {
		got, ok := loaded.Score(e.Profile)
		if !ok || got != e.Score {
			t.Fatalf("score mismatch for %v: %v vs %v", e.Profile, got, e.Score)
		}
	}
	if loaded.Stats() != table.Stats() {
		t.Fatalf("stats mismatch: %+v vs %+v", loaded.Stats(), table.Stats())
	}
}

func TestLoadTableGarbage(t *testing.T) {
	if _, err := LoadTable(bytes.NewBufferString("not gob")); err == nil {
		t.Fatal("LoadTable accepted garbage")
	}
}

// savedPaperTable returns the Save bytes of the paper table.
func savedPaperTable(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := paperTable(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oldFormatBlob encodes a table the way Save did before format version
// 2: scores in a map keyed by canonical profile string, no version, no
// VM types.
func oldFormatBlob(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		Groups []resource.Group
		Scores map[string]float64
		Stats  BuildStats
	}{
		Groups: []resource.Group{{Name: "cpu", Dims: 2, Cap: 1}},
		Scores: map[string]float64{"\x00\x00": 0.1, "\x00\x01": 0.5, "\x01\x01": 1},
		Stats:  BuildStats{Nodes: 3, Edges: 2, Converged: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadTableRejects: every malformed file is an error — never a
// panic, never a table that scores nothing.
func TestLoadTableRejects(t *testing.T) {
	valid := savedPaperTable(t)
	reencode := func(mutate func(w *tableWire)) []byte {
		var w tableWire
		if err := gob.NewDecoder(bytes.NewReader(valid)).Decode(&w); err != nil {
			t.Fatal(err)
		}
		mutate(&w)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := map[string][]byte{
		"old string-map format": oldFormatBlob(t),
		"truncated":             valid[:len(valid)/2],
		"unknown version":       reencode(func(w *tableWire) { w.Version = tableVersion + 1 }),
		"short score vector":    reencode(func(w *tableWire) { w.Scores = w.Scores[:len(w.Scores)-1] }),
		"long score vector":     reencode(func(w *tableWire) { w.Scores = append(w.Scores, 0.5) }),
		"NaN score":             reencode(func(w *tableWire) { w.Scores[3] = math.NaN() }),
		"+Inf score":            reencode(func(w *tableWire) { w.Scores[3] = math.Inf(1) }),
		"-Inf score":            reencode(func(w *tableWire) { w.Scores[3] = math.Inf(-1) }),
		"negative score":        reencode(func(w *tableWire) { w.Scores[3] = -1e-9 }),
		"no groups":             reencode(func(w *tableWire) { w.Groups = nil }),
		"invalid VM type":       reencode(func(w *tableWire) { w.Types[0].Demands[0].Group = "gpu" }),
		"dropped VM type":       reencode(func(w *tableWire) { w.Types = w.Types[:1] }),
		"one name, two demands": reencode(func(w *tableWire) { w.Types[1].Name = w.Types[0].Name }),
	}
	for name, data := range cases {
		got, err := LoadTable(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: LoadTable accepted the file (table of %d profiles)", name, got.Len())
		}
	}
	if _, err := LoadTable(bytes.NewReader(reencode(func(*tableWire) {}))); err != nil {
		t.Fatalf("unmutated re-encoding rejected: %v", err)
	}
}

// FuzzLoadTable: LoadTable never panics, and whatever it accepts is a
// table like a built one — it carries the move table, and saving it
// reaches a fixed point (gob tolerates streams Save would not write,
// so the input itself need not be that fixed point; for a real Save
// it is, see TestLoadedTableIsFast).
func FuzzLoadTable(f *testing.F) {
	valid := savedPaperTable(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(oldFormatBlob(f))
	f.Add([]byte("not gob"))
	f.Fuzz(func(t *testing.T, data []byte) {
		table, err := LoadTable(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkReleased(t, "loaded", table)
		var first, second bytes.Buffer
		if err := table.Save(&first); err != nil {
			t.Fatal(err)
		}
		again, err := LoadTable(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("LoadTable rejected its own Save: %v", err)
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("Save of a loaded table is not a fixed point")
		}
	})
}

func TestRegistry(t *testing.T) {
	table := paperTable(t)
	reg := NewRegistry()
	if reg.Len() != 0 {
		t.Fatal("new registry not empty")
	}
	reg.Add("M3", table)
	got, ok := reg.Get("M3")
	if !ok || got != Ranker(table) {
		t.Fatal("Get(M3) failed")
	}
	if _, ok := reg.Get("C3"); ok {
		t.Fatal("Get(C3) unexpectedly found")
	}
	if reg.Len() != 1 {
		t.Fatalf("Len = %d", reg.Len())
	}
}

func TestTopOrdering(t *testing.T) {
	table := paperTable(t)
	top := table.Top(10)
	if len(top) != 10 {
		t.Fatalf("Top(10) returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatalf("Top not sorted at %d", i)
		}
	}
}

// checkReleased fails unless the table's lattice has dropped its
// build-time state — typed lists, union CSR, node arena — so that its
// build-only methods panic.
func checkReleased(t *testing.T, name string, tb *Table) {
	t.Helper()
	if tb.space.HasTyped() {
		t.Fatalf("%s table still holds the typed successor lists", name)
	}
	for _, m := range []struct {
		name string
		call func()
	}{
		{"SuccArena", func() { tb.space.SuccArena() }},
		{"SuccOffsets", func() { tb.space.SuccOffsets() }},
		{"Utils", func() { tb.space.Utils() }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s table: Space.%s did not panic, so the CSR or the node arena is still held", name, m.name)
				}
			}()
			m.call()
		}()
	}
}

// TestReleasedTablesAnswerAsBuilt: a built table, a LoadTable'd one and
// one more Save→LoadTable round trip hold no CSR, no arena and no typed
// lists, and still answer Score, BestMove, Materialize and Top exactly
// as a lattice that keeps them all: scores bit for bit against the
// absorption values over a fresh space's CSR, moves against
// resource.Placements, Top against the fresh space's profiles.
func TestReleasedTablesAnswerAsBuilt(t *testing.T) {
	paper := resource.MustShape(resource.Group{Name: "cpu", Dims: 4, Cap: 4})
	for _, tc := range []struct {
		shape *resource.Shape
		types []resource.VMType
	}{
		{paper, append(paperVMTypes(), resource.NewVMType("[2]", resource.Demand{Group: "cpu", Units: []int{2}}))},
		{multiGroupShape(), multiGroupTypes()},
	} {
		ref, err := lattice.New(tc.shape, tc.types)
		if err != nil {
			t.Fatal(err)
		}
		scores, err := pagerank.AbsorptionValuesCSR(pagerank.CSR{Offsets: ref.SuccOffsets(), Edges: ref.SuccArena()},
			ref.Utils(), pagerank.DefaultDamping, DefaultRewardExponent)
		if err != nil {
			t.Fatal(err)
		}
		var want []Entry
		for i := 0; i < ref.Len(); i++ {
			want = append(want, Entry{Profile: ref.Node(i), Score: scores[i]})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Score != want[j].Score {
				return want[i].Score > want[j].Score
			}
			return want[i].Profile.String() < want[j].Profile.String()
		})

		built, err := NewJoint(tc.shape, tc.types, Options{})
		if err != nil {
			t.Fatal(err)
		}
		loaded := saveLoad(t, built)
		tables := []*Table{built, loaded, saveLoad(t, loaded)}
		profiles := latticeProfiles(t, tc.shape)
		for k, tb := range tables {
			name := []string{"built", "loaded", "reloaded"}[k]
			checkReleased(t, name, tb)
			top := tb.Top(0)
			for i, e := range want {
				if got := top[i]; !got.Profile.Equal(e.Profile) || math.Float64bits(got.Score) != math.Float64bits(e.Score) {
					t.Fatalf("%s %v: Top[%d] = %v, want %v", name, tc.shape, i, got, e)
				}
			}
			for _, p := range profiles {
				got, ok := tb.Score(p)
				if id := ref.Index(p); !ok || math.Float64bits(got) != math.Float64bits(scores[id]) {
					t.Fatalf("%s %v: Score(%v) = %v,%v, want %v", name, tc.shape, p, got, ok, scores[id])
				}
			}
			checkFastAgainstEnumeration(t, tb, tc.shape, tc.types, profiles)
			for id := int32(0); k > 0 && int(id) < built.Len(); id++ {
				for _, vt := range tc.types {
					bref, _ := built.ResolveType(vt)
					lref, _ := tb.ResolveType(vt)
					bs, bc, bok := built.BestMove([]int32{id}, bref)
					ls, lc, lok := tb.BestMove([]int32{id}, lref)
					bm, _ := built.Materialize([]int32{id}, bref)
					lm, _ := tb.Materialize([]int32{id}, lref)
					if bok != lok || bc != lc || math.Float64bits(bs) != math.Float64bits(ls) || !reflect.DeepEqual(bm, lm) {
						t.Fatalf("%s %v: node %d type %s: move %v %v of %d, built %v %v of %d", name, tc.shape, id, vt.Name, lm, ls, lc, bm, bs, bc)
					}
				}
			}
		}
	}
}

// saveLoad returns tb read back from its own Save.
func saveLoad(t *testing.T, tb *Table) *Table {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.Save(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := LoadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
