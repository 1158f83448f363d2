package serve

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/placement"
)

// The by-construction property, kept mechanically: in the package's
// non-test code every cluster mutation and every WAL flush has exactly
// one call site (apply and barrier), and the WAL is appended to from
// two (commit, and the descheduler's log-only OnMove hook). The VM
// directory is written live from the same two places — commit, and the
// OnMove hook New installs — and once more by recover, which rebuilds
// it from the clusters. A new handler that mutates state by hand fails
// here.
func TestOneApplyOneCommitOneBarrier(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string][]string{} // call -> positions
	funcs := map[string][]string{} // call -> enclosing top-level functions
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn := ""
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn = fd.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					method, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					field, ok := method.X.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					name := field.Sel.Name + "." + method.Sel.Name
					sites[name] = append(sites[name], fset.Position(call.Pos()).String())
					funcs[name] = append(funcs[name], fn)
					return true
				})
			}
		}
	}
	for name, want := range map[string]int{
		"cluster.Host":    1,
		"cluster.Release": 1,
		"cluster.Retire":  1,
		"wal.flush":       1,
		"wal.appendOp":    2,
	} {
		if got := sites[name]; len(got) != want {
			t.Errorf("%s has %d call sites, want %d: %v", name, len(got), want, got)
		}
	}
	for name, want := range map[string][]string{
		"loc.store":   {"New", "commit"}, // New's is the OnMove hook
		"loc.delete":  {"commit"},
		"loc.rebuild": {"recover"},
	} {
		got := append([]string(nil), funcs[name]...)
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s is called from %v, want %v: %v", name, got, want, sites[name])
		}
	}
}

// ROADMAP 2(f): a one-shard server is the library. Fed the same seeded
// place/release stream, the daemon and a bare Cluster + PageRankVM with
// the shard's seed agree on the PM and the assignment of every op.
func TestSingleShardMatchesBareCluster(t *testing.T) {
	const seed = 17
	cat, reg := testEnv(t)
	s, err := New(Config{Rankers: reg, PMs: cat.BuildCluster(8).PMs(), NewVM: cat.NewVM, Shards: 1, Seed: seed})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = s.Close() }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	bare := cat.BuildCluster(8)
	placer := placement.NewPageRankVM(reg, placement.WithSeed(seed))

	types := []string{"m3.medium", "m3.large", "m3.xlarge", "m3.2xlarge", "c3.large", "c3.xlarge"}
	rng := rand.New(rand.NewSource(seed))
	var resident []int
	places := 0
	for i := 0; i < 600; i++ {
		if len(resident) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(resident))
			id := resident[k]
			resident = append(resident[:k], resident[k+1:]...)
			var rr ReleaseResponse
			if code := postJSON(t, ts.Client(), ts.URL+"/v1/release", ReleaseRequest{VM: id}, &rr); code != http.StatusOK {
				t.Fatalf("op %d: release vm %d: status %d", i, id, code)
			}
			pm, _ := bare.Locate(id)
			if _, err := bare.Release(id); err != nil {
				t.Fatalf("op %d: bare release vm %d: %v", i, id, err)
			}
			if rr.PM != pm.ID {
				t.Fatalf("op %d: release vm %d: daemon says pm %d, library pm %d", i, id, rr.PM, pm.ID)
			}
			continue
		}
		vmType := types[rng.Intn(len(types))]
		vm, err := cat.NewVM(i, vmType)
		if err != nil {
			t.Fatal(err)
		}
		pm, assign, perr := placer.Place(bare, vm, nil)
		var raw struct {
			PlaceResponse
			ErrorResponse
		}
		code := postJSON(t, ts.Client(), ts.URL+"/v1/place", PlaceRequest{VM: i, Type: vmType}, &raw)
		if errors.Is(perr, placement.ErrNoCapacity) {
			if code != http.StatusConflict {
				t.Fatalf("op %d: library has no capacity for vm %d, daemon answered %d", i, i, code)
			}
			continue
		}
		if perr != nil {
			t.Fatalf("op %d: bare place: %v", i, perr)
		}
		if err := bare.Host(pm, vm, assign); err != nil {
			t.Fatalf("op %d: bare host: %v", i, err)
		}
		if code != http.StatusOK || raw.PM != pm.ID || !assignEqual(raw.Assign, record.AssignOf(assign)) {
			t.Fatalf("op %d: place vm %d (%s): daemon %d pm %d %v, library pm %d %v",
				i, i, vmType, code, raw.PM, raw.Assign, pm.ID, assign)
		}
		resident = append(resident, i)
		places++
	}
	if places < 300 || bare.NumUsed() < 10 {
		t.Fatalf("stream too thin to mean anything: %d places, %d used PMs", places, bare.NumUsed())
	}
	s.shards[0].mu.Lock()
	got := s.shards[0].cluster.NumUsed()
	s.shards[0].mu.Unlock()
	if got != bare.NumUsed() {
		t.Fatalf("daemon ends with %d used PMs, library with %d", got, bare.NumUsed())
	}
}

// The loc directory only picks the shard: a release names the PM the
// cluster holds the VM on once the shard lock is held. A stale loc entry
// is what a same-shard descheduler move leaves visible to a release that
// read loc just before it; the response and the logged op must still
// name the true host.
func TestReleaseNamesClusterPMNotStaleLoc(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, 1, 4)
	ts := httptest.NewServer(s)
	defer ts.Close()

	var pr PlaceResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/place", PlaceRequest{VM: 1, Type: "m3.large"}, &pr); code != http.StatusOK {
		t.Fatalf("place: status %d", code)
	}
	stale := -1
	for id := range s.shards[0].pms {
		if id != pr.PM {
			stale = id
			break
		}
	}
	s.loc.store(1, locEntry{shard: 0, pm: stale})

	var rr ReleaseResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/release", ReleaseRequest{VM: 1}, &rr); code != http.StatusOK {
		t.Fatalf("release: status %d", code)
	}
	if rr.PM != pr.PM {
		t.Errorf("release reported pm %d, VM was on pm %d", rr.PM, pr.PM)
	}
	s.Kill()

	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	var logged *record.Op
	if _, err := readSegmentOps(filepath.Join(dir, segs[0]), false, func(op record.Op) error {
		if op.Kind == record.OpRelease {
			logged = &op
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if logged == nil || logged.VM != 1 || logged.PM != pr.PM || logged.Seq != rr.Seq {
		t.Fatalf("logged release op %+v, want vm 1 off pm %d at seq %d", logged, pr.PM, rr.Seq)
	}
}
