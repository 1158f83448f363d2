package placement

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pagerankvm/internal/resource"
)

// clusterState is everything a move may or may not touch: where every
// VM sits with which assignment, and every PM's used vector.
type clusterState struct {
	vms map[int]string // vm id -> "pm assign"
	pms map[int]string // pm id -> used vector
}

func stateOf(c *Cluster) clusterState {
	st := clusterState{vms: map[int]string{}, pms: map[int]string{}}
	for _, pm := range c.PMs() {
		st.pms[pm.ID] = fmt.Sprint(pm.Used())
		for id, h := range pm.VMs() {
			st.vms[id] = fmt.Sprintf("pm %d %v", pm.ID, h.Assign)
		}
	}
	return st
}

// diff lists the VM and PM ids whose entries differ between two states.
func (a clusterState) diff(b clusterState) (vms, pms []int) {
	for id, v := range a.vms {
		if b.vms[id] != v {
			vms = append(vms, id)
		}
	}
	for id, v := range a.pms {
		if b.pms[id] != v {
			pms = append(pms, id)
		}
	}
	return vms, pms
}

// Property: on random clusters, with every baseline placer and
// PageRankVM, Cluster.Migrate has exactly three outcomes. Refused (accept
// said no) and no-capacity leave the VM→PM map, every used vector and
// the VM's assignment as they were — a restored PM that had emptied sits
// at the tail of the used list — and differ only in err; accepted leaves
// the VM on dest and nothing else changed but the two PMs' used vectors.
func TestMigrateOutcomesQuick(t *testing.T) {
	placers := []Placer{
		FirstFit{}, FFDSum{}, CompVM{}, BestFit{},
		NewPageRankVM(smallRegistry(t), WithSeed(5)),
	}
	outcomes := map[string]int{}
	for _, p := range placers {
		for seed := int64(0); seed < 40; seed++ {
			r := rand.New(rand.NewSource(seed))
			c := newCluster(2 + r.Intn(4))
			var ids []int
			for id := 0; id < 30; id++ {
				name := "[1,1]"
				if r.Intn(3) == 0 {
					name = "[1,1,1,1]"
				}
				vm := newVM(id, name)
				pm, assign, err := p.Place(c, vm, nil)
				if err != nil {
					continue
				}
				if err := c.Host(pm, vm, assign); err != nil {
					t.Fatalf("%s seed %d: Host: %v", p.Name(), seed, err)
				}
				ids = append(ids, id)
				if r.Intn(4) == 0 {
					k := r.Intn(len(ids))
					if _, err := c.Release(ids[k]); err != nil {
						t.Fatalf("%s seed %d: Release: %v", p.Name(), seed, err)
					}
					ids = append(ids[:k], ids[k+1:]...)
				}
			}

			for try := 0; try < 20 && len(ids) > 0; try++ {
				vmID := ids[r.Intn(len(ids))]
				src, _ := c.Locate(vmID)
				wasAlone := src.NumVMs() == 1
				before := stateOf(c)
				policy := r.Intn(3) // 0: nil accept, 1: accept all, 2: refuse all
				asked := false
				var offered resource.Assignment
				var accept func(Hosted, *PM, resource.Assignment) bool
				if policy > 0 {
					accept = func(h Hosted, dest *PM, assign resource.Assignment) bool {
						asked, offered = true, assign
						if h.VM.ID != vmID || dest == src {
							t.Errorf("%s seed %d: accept saw vm %d dest pm %d (src pm %d)", p.Name(), seed, h.VM.ID, dest.ID, src.ID)
						}
						if _, still := src.VMs()[vmID]; still {
							t.Errorf("%s seed %d: accept ran with vm %d still on its source", p.Name(), seed, vmID)
						}
						return policy == 1
					}
				}
				h, dest, err := c.Migrate(p, vmID, accept)
				after := stateOf(c)
				vms, pms := before.diff(after)

				if dest == nil {
					switch {
					case asked && err != nil:
						t.Fatalf("%s seed %d: refusal returned err %v", p.Name(), seed, err)
					case !asked && !errors.Is(err, ErrNoCapacity):
						t.Fatalf("%s seed %d: stayed without being asked, err = %v", p.Name(), seed, err)
					}
					if len(vms)+len(pms) != 0 || len(after.vms) != len(before.vms) {
						t.Fatalf("%s seed %d: vm %d stayed but vms %v / pms %v changed", p.Name(), seed, vmID, vms, pms)
					}
					if now, _ := c.Locate(vmID); now != src || fmt.Sprint(h.Assign) != fmt.Sprint(src.VMs()[vmID].Assign) {
						t.Fatalf("%s seed %d: vm %d not restored onto pm %d as it was", p.Name(), seed, vmID, src.ID)
					}
					if used := c.UsedPMs(); wasAlone && used[len(used)-1] != src {
						t.Fatalf("%s seed %d: re-activated pm %d is not at the used list's tail", p.Name(), seed, src.ID)
					}
					if asked {
						outcomes["refused"]++
					} else {
						outcomes["no-capacity"]++
					}
					continue
				}

				outcomes["accepted"]++
				if err != nil || policy == 2 || dest == src {
					t.Fatalf("%s seed %d: moved to pm %d with err %v under policy %d", p.Name(), seed, dest.ID, err, policy)
				}
				if now, _ := c.Locate(vmID); now != dest || fmt.Sprint(dest.VMs()[vmID].Assign) != fmt.Sprint(h.Assign) {
					t.Fatalf("%s seed %d: vm %d not on dest pm %d with the returned assignment", p.Name(), seed, vmID, dest.ID)
				}
				if asked && fmt.Sprint(offered) != fmt.Sprint(h.Assign) {
					t.Fatalf("%s seed %d: accept was offered %v, vm %d landed with %v", p.Name(), seed, offered, vmID, h.Assign)
				}
				if len(vms) != 1 || vms[0] != vmID || len(after.vms) != len(before.vms) {
					t.Fatalf("%s seed %d: moving vm %d changed vms %v", p.Name(), seed, vmID, vms)
				}
				for _, id := range pms {
					if id != src.ID && id != dest.ID {
						t.Fatalf("%s seed %d: moving vm %d from pm %d to pm %d changed pm %d", p.Name(), seed, vmID, src.ID, dest.ID, id)
					}
				}
				if len(c.UsedPMs())+len(c.UnusedPMs()) != len(c.PMs()) || src.Active() != (src.NumVMs() > 0) {
					t.Fatalf("%s seed %d: used/unused lists no longer partition the inventory", p.Name(), seed)
				}
			}
		}
	}
	t.Logf("outcomes: %v", outcomes)
	for _, o := range []string{"refused", "no-capacity", "accepted"} {
		if outcomes[o] == 0 {
			t.Errorf("no %s outcome in the whole run: %v", o, outcomes)
		}
	}
}

// A VM that is not placed is an error before anything is touched.
func TestMigrateUnknownVM(t *testing.T) {
	c := newCluster(2)
	place(t, c, FirstFit{}, newVM(1, "[1,1]"))
	before := stateOf(c)
	if _, dest, err := c.Migrate(FirstFit{}, 99, nil); dest != nil || err == nil {
		t.Fatalf("Migrate of an unplaced vm: dest %v err %v", dest, err)
	}
	if vms, pms := before.diff(stateOf(c)); len(vms)+len(pms) != 0 {
		t.Fatalf("failed Migrate changed vms %v pms %v", vms, pms)
	}
}
