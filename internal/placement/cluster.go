// Package placement implements the paper's Algorithm 2 (PageRankVM's
// initial VM allocation), the comparison algorithms (First Fit,
// First-Fit-Decreasing-Sum, CompVM, Best Fit), and the overload
// eviction policies. All algorithms share the anti-collocation
// machinery of internal/resource, as the paper prescribes ("all
// algorithms use the strategy of PageRankVM to satisfy the
// anti-collocation constraints").
//
// Types in this package are not safe for concurrent use; a simulation
// run drives one cluster from one goroutine.
package placement

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/resource"
)

// ErrNoCapacity is returned when no PM — used or unused — can host a VM.
var ErrNoCapacity = errors.New("placement: no PM with sufficient capacity")

// VM is one placement request: an instance of a catalog VM type. Its
// integer-unit demands depend on the PM type they are placed on
// (per-PM-type quantization), hence the map.
type VM struct {
	// ID uniquely identifies the VM instance.
	ID int
	// Type is the catalog VM type name (e.g. "m3.large").
	Type string
	// Req maps a PM type name to the quantized demand of this VM on
	// that PM type. The library only ever indexes and ranges it, and a
	// catalog hands the same map to every VM of a type: it is shared
	// and must not be written.
	Req map[string]resource.VMType
}

// DemandOn returns the quantized demand of the VM on a PM type.
func (v *VM) DemandOn(pmType string) (resource.VMType, bool) {
	d, ok := v.Req[pmType]
	return d, ok
}

// Hosted records a VM placed on a PM together with its concrete
// anti-collocation assignment.
type Hosted struct {
	VM     *VM
	Assign resource.Assignment
}

// PM is one physical machine.
type PM struct {
	// ID uniquely identifies the PM.
	ID int
	// Type is the catalog PM type name (e.g. "M3").
	Type string
	// Shape is the PM's dimension layout.
	Shape *resource.Shape

	used resource.Vec
	// hosted is the hosted set in ascending VM-id order, the order
	// everything that walks it sums or decides in.
	hosted []Hosted

	// cordon marks the PM as unavailable for new placements — the
	// maintenance-drain state. Placers skip cordoned PMs; Host still
	// succeeds (compensation paths re-host a released VM explicitly).
	cordon bool

	// The open list's per-PM state (DESIGN.md §16 "The open list"), kept
	// beside the fields a scan reads anyway. rejects counts the memo
	// entries holding a reject: once it equals len(memo) the profile
	// takes no VM type of bind's rank table, and the scan that sees that
	// sets closed and drops the PM from Cluster.open until the profile
	// next mutates.
	closed  bool
	rejects int32

	// gen counts profile mutations (host/remove) and is the single
	// invalidation point of everything a fast-path placer remembers
	// about the PM (DESIGN.md §16): the lattice node ids of the used
	// profile (pmNodeIDs) and the per-VM-type memo of Algorithm 2's
	// candidate evaluation. Both are valid while rankGen == gen and
	// bind is the placer binding that filled them; resetRank drops them
	// otherwise. Nothing else — cordon, list membership or order — is
	// an input to what they hold.
	gen      uint64
	rankGen  uint64
	bind     *binding
	memo     []memoEntry // indexed by bind's TypeRef.Index()
	rankIDs  []int32
	rankDone bool // rankIDs/rankOK resolved since the last reset
	rankOK   bool

	// seq is the first-use number stamped when the PM entered the used
	// list: the used list and the open list are sorted by it, which is
	// how a PM is found, or put back in order, by binary search.
	seq uint64
}

// stage is where a candidate leaves Algorithm 2's loop: the ordered
// reject stages, or scored. The memo stores evaluate's three, so a
// recorder sees the same record.Candidate status on a hit as on a miss.
type stage uint8

const (
	stageUnknown stage = iota // memo only: not evaluated since the last mutation
	stageExcluded
	stageCordoned
	stageNoFit
	stageNoProfile
	stageScored
)

var stageStatus = [...]string{
	stageExcluded:  record.StatusExcluded,
	stageCordoned:  record.StatusCordoned,
	stageNoFit:     record.StatusNoFit,
	stageNoProfile: record.StatusNoProfile,
	stageScored:    record.StatusScored,
}

// memoEntry is what one candidate evaluation (Algorithm 2 lines 5-7)
// concluded for one VM type on the PM's current profile: where the
// candidate left the loop and, when scored, the best resulting
// profile's score and the number of profiles considered. It is a pure
// function of (rank table, PM type, used profile, VM type), so it
// holds until the profile mutates.
type memoEntry struct {
	score float64
	count int32
	stage stage
}

// resetRank hands the PM's placer caches to b at the current gen,
// dropping whatever another binding or an older profile left.
func (p *PM) resetRank(b *binding) {
	p.bind, p.rankGen, p.rankDone, p.rejects = b, p.gen, false, 0
	if n := b.fr.NumTypes(); cap(p.memo) < n {
		p.memo = make([]memoEntry, n)
	} else {
		p.memo = p.memo[:n]
		clear(p.memo)
	}
}

// pmNodeIDs resolves pm's used profile to the lattice node ids of b's
// fast ranker, serving repeats from the cache on the PM (invalidated
// whenever the profile mutates — see PM.gen).
//
//prvm:hotpath
func pmNodeIDs(pm *PM, b *binding) ([]int32, bool) {
	if pm.bind != b || pm.rankGen != pm.gen {
		pm.resetRank(b)
	}
	if !pm.rankDone {
		pm.rankIDs, pm.rankOK = b.fr.NodeIDs(pm.used, pm.rankIDs)
		pm.rankDone = true
	}
	return pm.rankIDs, pm.rankOK
}

// rejectsAll reports whether p's memo proves the PM closed: filled by
// one of placer's live bindings at the current gen, and holding a reject
// for every VM type of that binding's rank table.
func (p *PM) rejectsAll(placer *PageRankVM) bool {
	return p.rejects > 0 && int(p.rejects) == len(p.memo) &&
		p.rankGen == p.gen && p.bind != nil && p.bind.owner == placer
}

// NewPM returns an empty PM.
func NewPM(id int, pmType string, shape *resource.Shape) *PM {
	return &PM{
		ID:    id,
		Type:  pmType,
		Shape: shape,
		used:  shape.Zero(),
	}
}

// Used returns the PM's current requested-units profile. The returned
// vector is shared: callers must not modify it, and it changes in place
// with the PM's next host or release (Clone it to keep a profile).
func (p *PM) Used() resource.Vec { return p.used }

// Gen returns the PM's mutation count: every host and release advances
// it, so a caller that remembers it knows whether the hosted set has
// changed since.
func (p *PM) Gen() uint64 { return p.gen }

// NumVMs returns the number of VMs hosted.
func (p *PM) NumVMs() int { return len(p.hosted) }

// Active reports whether the PM hosts at least one VM.
func (p *PM) Active() bool { return len(p.hosted) > 0 }

// HostedVMs returns the hosted VMs in ascending VM-id order. The slice
// is shared, must not be modified, and is valid until the PM's next
// host or release (walk VMIDs to mutate as you go).
func (p *PM) HostedVMs() []Hosted { return p.hosted }

// Get returns the hosting record of the VM with the given id.
func (p *PM) Get(vmID int) (Hosted, bool) {
	if i, ok := p.find(vmID); ok {
		return p.hosted[i], true
	}
	return Hosted{}, false
}

// VMs returns a copy of the hosted set keyed by VM id.
func (p *PM) VMs() map[int]Hosted {
	m := make(map[int]Hosted, len(p.hosted))
	for _, h := range p.hosted {
		m[h.VM.ID] = h
	}
	return m
}

// VMIDs returns the hosted VM ids in ascending order: a snapshot to
// walk while releasing or migrating the VMs it names.
func (p *PM) VMIDs() []int {
	ids := make([]int, len(p.hosted))
	for i, h := range p.hosted {
		ids[i] = h.VM.ID
	}
	return ids
}

// find returns where vmID is, or would go, in the hosted set.
func (p *PM) find(vmID int) (int, bool) {
	return slices.BinarySearchFunc(p.hosted, vmID, func(h Hosted, id int) int { return cmp.Compare(h.VM.ID, id) })
}

// Cordoned reports whether the PM is cordoned: under maintenance
// drain, refused by every placer until uncordoned or retired.
func (p *PM) Cordoned() bool { return p.cordon }

// SetCordoned marks or unmarks the PM as cordoned. Cordoning only
// affects placer choice — hosted VMs stay hosted, and Cluster.Host on
// a cordoned PM still succeeds so drain-failure compensation can put a
// released VM back.
func (p *PM) SetCordoned(v bool) { p.cordon = v }

// Fits reports whether vm can be hosted under the PM's remaining
// capacity with anti-collocation respected.
func (p *PM) Fits(vm *VM) bool {
	demand, ok := vm.DemandOn(p.Type)
	if !ok {
		return false
	}
	return resource.Fits(p.Shape, p.used, demand)
}

// host places vm with a concrete assignment. The assignment must have
// been derived from the PM's current profile; one that names a
// dimension outside the shape, a non-positive unit or more than a
// dimension has left is refused before anything changes. The profile
// is updated in place (Used shares it), so host and remove allocate
// nothing once the hosted set has grown to its working size.
func (p *PM) host(vm *VM, assign resource.Assignment) error {
	i, dup := p.find(vm.ID)
	if dup {
		return fmt.Errorf("placement: vm %d already on pm %d", vm.ID, p.ID)
	}
	for k, du := range assign {
		c := p.Shape.DimCap(du.Dim)
		if du.Units <= 0 || du.Units > c {
			return fmt.Errorf("placement: assignment unit %+v does not fit pm %d", du, p.ID)
		}
		total := p.used[du.Dim]
		for _, prev := range assign[:k+1] {
			if prev.Dim == du.Dim {
				total += prev.Units
			}
		}
		if total > c {
			return fmt.Errorf("placement: assignment overflows pm %d: dim %d needs %d of %d", p.ID, du.Dim, total, c)
		}
	}
	for _, du := range assign {
		p.used[du.Dim] += du.Units
	}
	p.hosted = slices.Insert(p.hosted, i, Hosted{VM: vm, Assign: assign})
	p.gen++
	return nil
}

// remove releases vm's resources.
func (p *PM) remove(vmID int) (Hosted, error) {
	i, ok := p.find(vmID)
	if !ok {
		return Hosted{}, fmt.Errorf("placement: vm %d not on pm %d", vmID, p.ID)
	}
	h := p.hosted[i]
	for _, du := range h.Assign {
		p.used[du.Dim] -= du.Units
	}
	p.hosted = slices.Delete(p.hosted, i, i+1)
	p.gen++
	return h, nil
}

// Cluster tracks the datacenter's PMs and which VMs they host. It keeps
// the paper's two lists: used PMs (hosting at least one VM, in
// first-use order) and unused PMs (in inventory order).
type Cluster struct {
	pms    []*PM
	used   []*PM
	unused []*PM
	loc    map[int]*PM // vm id -> hosting PM

	// open is the subsequence of used, in the same order, of the PMs not
	// closed — what Algorithm 2 has to visit (DESIGN.md §16 "The open
	// list"). The closures rest on the memo of one placer, openBy, at its
	// binding epoch openEpoch; openFor reopens everything for any other.
	// nextSeq is the next first-use number; reopened tallies PMs put
	// back, until a placer moves it into placement.pms_reopened.
	open      []*PM
	openBy    *PageRankVM
	openEpoch uint64
	nextSeq   uint64
	reopened  int64

	// MaxUsed tracks the high-water mark of simultaneously used PMs —
	// the paper's "number of PMs used" metric.
	MaxUsed int
}

// NewCluster builds a cluster over the given PM inventory. All PMs
// start unused.
func NewCluster(pms []*PM) *Cluster {
	c := &Cluster{
		pms:    pms,
		unused: make([]*PM, len(pms)),
		loc:    make(map[int]*PM),
	}
	copy(c.unused, pms)
	return c
}

// PMs returns all PMs in inventory order. The slice is shared.
func (c *Cluster) PMs() []*PM { return c.pms }

// UsedPMs returns the used list in first-use order. The slice is shared.
func (c *Cluster) UsedPMs() []*PM { return c.used }

// UnusedPMs returns the unused list. The slice is shared.
func (c *Cluster) UnusedPMs() []*PM { return c.unused }

// NumUsed returns the number of PMs currently hosting VMs.
func (c *Cluster) NumUsed() int { return len(c.used) }

// Locate returns the PM hosting the VM with the given id.
func (c *Cluster) Locate(vmID int) (*PM, bool) {
	pm, ok := c.loc[vmID]
	return pm, ok
}

// NumVMs returns the number of placed VMs.
func (c *Cluster) NumVMs() int { return len(c.loc) }

// Host places vm on pm with the given assignment, maintaining the
// used/unused lists.
func (c *Cluster) Host(pm *PM, vm *VM, assign resource.Assignment) error {
	if _, placed := c.loc[vm.ID]; placed {
		return fmt.Errorf("placement: vm %d already placed", vm.ID)
	}
	wasActive := pm.Active()
	if err := pm.host(vm, assign); err != nil {
		return err
	}
	c.loc[vm.ID] = pm
	if !wasActive {
		pm.seq = c.nextSeq
		c.nextSeq++
		c.used = append(c.used, pm)
		c.open = append(c.open, pm)
		c.removeUnused(pm)
		if len(c.used) > c.MaxUsed {
			c.MaxUsed = len(c.used)
		}
	} else if pm.closed {
		c.reopen(pm)
	}
	return nil
}

// Release removes the VM from its PM and returns the released record.
// An emptied PM moves back to the unused list (it can be powered off).
func (c *Cluster) Release(vmID int) (Hosted, error) {
	pm, ok := c.loc[vmID]
	if !ok {
		return Hosted{}, fmt.Errorf("placement: vm %d not placed", vmID)
	}
	return c.releaseFrom(pm, vmID)
}

// releaseFrom is Release once the hosting PM is known.
func (c *Cluster) releaseFrom(pm *PM, vmID int) (Hosted, error) {
	h, err := pm.remove(vmID)
	if err != nil {
		return Hosted{}, err
	}
	delete(c.loc, vmID)
	if !pm.Active() {
		c.removeUsed(pm)
		c.unused = append(c.unused, pm)
	} else if pm.closed {
		c.reopen(pm)
	}
	return h, nil
}

// Migrate is the one move primitive — the paper's migration step,
// shared by overload relief, consolidation and the descheduler:
// release the VM, ask p where it would land today with its source
// excluded, and host it there when accept approves the destination and
// the assignment the placer chose for it (nil accepts any). Otherwise —
// no capacity, a refusal, or a failed Host — the VM goes back on its
// source with its original assignment; a source that emptied re-enters
// the used list at the tail, like any other PM coming into use.
//
// It returns the VM's hosting record after the call and the
// destination it moved to. dest is nil when the VM stayed: err then
// carries the placer's (or Host's) error, or is nil for a refusal.
// accept runs between the release and the Host, so it sees the source
// without the VM and the destination before it.
func (c *Cluster) Migrate(p Placer, vmID int, accept func(h Hosted, dest *PM, assign resource.Assignment) bool) (h Hosted, dest *PM, err error) {
	src, ok := c.loc[vmID]
	if !ok {
		return Hosted{}, nil, fmt.Errorf("placement: vm %d not placed", vmID)
	}
	if h, err = c.releaseFrom(src, vmID); err != nil {
		return Hosted{}, nil, err
	}
	dest, assign, err := p.Place(c, h.VM, src)
	if err == nil && (accept == nil || accept(h, dest, assign)) {
		if err = c.Host(dest, h.VM, assign); err == nil {
			return Hosted{VM: h.VM, Assign: assign}, dest, nil
		}
	}
	if rerr := c.Host(src, h.VM, h.Assign); rerr != nil {
		// The source held exactly these units a moment ago; failing to
		// take them back is a bookkeeping bug worth crashing loudly on.
		panic(fmt.Sprintf("placement: restore vm %d on pm %d: %v", vmID, src.ID, rerr))
	}
	return h, nil, err
}

// Retire permanently removes an inactive PM from the inventory — the
// testbed controller's response to a dead agent, whose machine must
// never be offered to the placer again. The PM must be empty; Release
// its VMs first. The inventory slice is rebuilt rather than mutated in
// place so callers holding the original slice are unaffected.
func (c *Cluster) Retire(pm *PM) error {
	if pm.Active() {
		return fmt.Errorf("placement: retire pm %d: still hosts %d VMs", pm.ID, pm.NumVMs())
	}
	c.removeUnused(pm) // inactive, so on no other list
	pms := make([]*PM, 0, len(c.pms))
	for _, p := range c.pms {
		if p != pm {
			pms = append(pms, p)
		}
	}
	c.pms = pms
	return nil
}

// Reorder rebuilds the used and unused lists in the given PM-id orders.
// It is the snapshot-restore hook of the serve daemon: Algorithm 2 scans
// the used list in first-use order and opens unused PMs in list order,
// so a recovered cluster must restore both orders — not just the same
// membership — to keep post-recovery decisions bit-identical to an
// uninterrupted run. Each argument must be a permutation of the
// corresponding current list. First-use numbers are reissued along the
// new used order and every closed PM is reopened.
func (c *Cluster) Reorder(usedIDs, unusedIDs []int) error {
	used, err := c.permute(c.used, usedIDs, "used")
	if err != nil {
		return err
	}
	unused, err := c.permute(c.unused, unusedIDs, "unused")
	if err != nil {
		return err
	}
	c.used = used
	c.unused = unused
	for i, pm := range used {
		pm.seq = uint64(i)
	}
	c.nextSeq = uint64(len(used))
	c.reopenAll()
	return nil
}

// permute reorders list into the id order given by ids, verifying ids is
// exactly a permutation of the list's members.
func (c *Cluster) permute(list []*PM, ids []int, name string) ([]*PM, error) {
	if len(ids) != len(list) {
		return nil, fmt.Errorf("placement: reorder %s: %d ids for %d PMs", name, len(ids), len(list))
	}
	byID := make(map[int]*PM, len(list))
	for _, pm := range list {
		byID[pm.ID] = pm
	}
	out := make([]*PM, 0, len(ids))
	for _, id := range ids {
		pm, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("placement: reorder %s: pm %d not in list (or repeated)", name, id)
		}
		delete(byID, id)
		out = append(out, pm)
	}
	return out, nil
}

func (c *Cluster) removeUnused(pm *PM) {
	for i, p := range c.unused {
		if p == pm {
			c.unused = append(c.unused[:i], c.unused[i+1:]...)
			return
		}
	}
}

// removeUsed takes an emptied PM off the used list and, unless it was
// closed, off the open list.
func (c *Cluster) removeUsed(pm *PM) {
	i := seqIndex(c.used, pm.seq)
	c.used = append(c.used[:i], c.used[i+1:]...)
	if !pm.closed {
		i = seqIndex(c.open, pm.seq)
		c.open = append(c.open[:i], c.open[i+1:]...)
	}
	pm.closed = false
}

// seqIndex returns the position of first-use number seq in list, a
// subsequence of the used list: the index of the first PM numbered seq
// or later.
func seqIndex(list []*PM, seq uint64) int {
	return sort.Search(len(list), func(i int) bool { return list[i].seq >= seq })
}

// reopen puts a closed PM whose profile just mutated back on the open
// list, at its first-use position.
func (c *Cluster) reopen(pm *PM) {
	c.open = slices.Insert(c.open, seqIndex(c.open, pm.seq), pm)
	pm.closed = false
	c.reopened++
}

// reopenAll resets the open list to the whole used list.
func (c *Cluster) reopenAll() {
	c.reopened += int64(len(c.used) - len(c.open))
	c.open = append(c.open[:0], c.used...)
	for _, pm := range c.used {
		pm.closed = false
	}
}

// openFor returns the open list for a scan by p. Closures prove
// something about one placer's rank tables only, so a placer other than
// the one that made them, or the same one after the registry replaced a
// ranker under it, starts from the whole used list again.
func (c *Cluster) openFor(p *PageRankVM) []*PM {
	if c.openBy != p || c.openEpoch != p.epoch {
		c.openBy, c.openEpoch = p, p.epoch
		if len(c.open) != len(c.used) {
			c.reopenAll()
		}
	}
	return c.open
}

// closeScanned finishes the in-place compaction of a scan over the open
// list that visited open[:visited] and kept open[:kept] of them, and
// returns how many PMs that closed.
func (c *Cluster) closeScanned(kept, visited int) int64 {
	if kept != visited {
		n := kept + copy(c.open[kept:], c.open[visited:])
		clear(c.open[n:])
		c.open = c.open[:n]
	}
	return int64(visited - kept)
}

// Placer selects a PM and a concrete assignment for a VM without
// mutating the cluster; callers commit the decision with Cluster.Host.
// exclude, when non-nil, is a PM that must not be chosen (the overload
// source during a migration).
type Placer interface {
	Name() string
	Place(c *Cluster, vm *VM, exclude *PM) (*PM, resource.Assignment, error)
}

// openUnused implements the shared tail of Algorithm 2 (lines 17-24):
// take the first unused PM that can host the VM.
func openUnused(c *Cluster, vm *VM, exclude *PM) (*PM, resource.Assignment, error) {
	for _, pm := range c.unused {
		if pm == exclude || pm.Cordoned() || !pm.Fits(vm) {
			continue
		}
		demand, _ := vm.DemandOn(pm.Type)
		assign := resource.GreedyAssign(pm.Shape, pm.Used(), demand)
		if assign == nil {
			continue
		}
		return pm, assign, nil
	}
	return nil, nil, ErrNoCapacity
}
