package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/placement"
)

// Snapshot file framing. Like WAL segments, snapshots are named by
// their cut seq — snapshot-<seq, 16 digits>.json — so recovery picks
// the newest by file name and GC reasons about cut points without
// opening files.
const (
	snapFormat  = "prvm-serve-snapshot"
	snapVersion = 1
	snapPrefix  = "snapshot-"
	snapSuffix  = ".json"
)

// snapshotFile is the on-disk snapshot: the full sharded cluster state
// at a seq cut. It captures not just VM->PM membership but the
// used/unused list orders and MaxUsed watermark of every shard, because
// Algorithm 2's scan order (and therefore every post-recovery decision)
// depends on them.
type snapshotFile struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Seq is the cut: the state reflects exactly the ops with seq < Seq.
	Seq int64 `json:"seq"`
	// Shards is the shard count the snapshot was taken under. Recovery
	// refuses a mismatch: list orders are per-shard and do not survive
	// re-sharding (see DESIGN.md §14).
	Shards int         `json:"shards"`
	State  []snapShard `json:"state"`
}

// snapShard is one shard's state.
type snapShard struct {
	// Used is the used list: PM ids in first-use order.
	Used []int `json:"used"`
	// Unused is the unused list: PM ids in current list order.
	Unused []int `json:"unused"`
	// MaxUsed is the shard's high-water mark of simultaneously used PMs.
	MaxUsed int `json:"max_used"`
	// Retired lists PM ids drained out of the inventory, in retirement
	// order. Absent in pre-drain snapshots, which decode to an empty
	// list — no version bump needed.
	Retired []int `json:"retired,omitempty"`
	// PMs holds the hosted VMs of every active PM, in used-list order.
	PMs []snapPM `json:"pms,omitempty"`
}

// snapPM is one active PM's hosted set.
type snapPM struct {
	ID  int      `json:"id"`
	VMs []snapVM `json:"vms"`
}

// snapVM is one hosted VM with its concrete anti-collocation
// assignment.
type snapVM struct {
	ID     int               `json:"id"`
	Type   string            `json:"type"`
	Assign []record.OpAssign `json:"assign"`
}

// snapshotName renders the file name of a snapshot cut at seq.
func snapshotName(seq int64) string {
	return fmt.Sprintf("%s%016d%s", snapPrefix, seq, snapSuffix)
}

// snapshotSeq parses a snapshot file name back to its cut seq.
func snapshotSeq(name string) (int64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	seq, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || seq < 0 {
		return 0, false
	}
	return seq, true
}

// Snapshot cuts a snapshot now: quiesce all shards, stamp the cut seq,
// rotate the WAL to a new segment at the cut, then (off the locks)
// write the snapshot atomically and garbage-collect superseded files.
// Returns nil immediately for in-memory servers. Concurrent calls
// coalesce: a call while another snapshot is in flight is a no-op.
func (s *Server) Snapshot() error {
	if s.cfg.DataDir == "" {
		return nil
	}
	if !s.snapInFlight.CompareAndSwap(false, true) {
		return nil
	}
	defer s.snapInFlight.Store(false)

	// Quiesce: with every shard lock held there are no in-flight
	// mutations, so NextSeq is a consistent cut. Locks are taken in
	// index order (the only place more than one shard lock is held).
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	cut := s.wal.nextSeq()
	snap := s.capture(cut)
	rotErr := s.wal.rotate(cut)
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
	if rotErr != nil {
		return rotErr
	}

	if err := writeSnapshot(s.cfg.DataDir, snap); err != nil {
		// The rotation already happened; recovery simply replays across
		// the extra segment boundary. Nothing is lost.
		return err
	}
	if s.cfg.Fsync {
		// The rename must be durable before GC deletes the segments the
		// snapshot supersedes; if it cannot be, they stay.
		if err := syncDir(s.cfg.DataDir); err != nil {
			return fmt.Errorf("serve: snapshot: %w", err)
		}
	}
	s.met.snapshots.Inc()
	s.opsSinceSnap.Store(0)
	s.gcData(cut)
	return nil
}

// capture serializes the sharded state under the already-held shard
// locks. Iteration orders are deterministic: shards by index, PMs by
// list order, VMs by ascending id.
func (s *Server) capture(cut int64) snapshotFile {
	snap := snapshotFile{
		Format:  snapFormat,
		Version: snapVersion,
		Seq:     cut,
		Shards:  len(s.shards),
		State:   make([]snapShard, len(s.shards)),
	}
	for i, sh := range s.shards {
		st := snapShard{MaxUsed: sh.cluster.MaxUsed}
		if len(sh.retired) > 0 {
			st.Retired = append([]int(nil), sh.retired...)
		}
		for _, pm := range sh.cluster.UsedPMs() {
			st.Used = append(st.Used, pm.ID)
			sp := snapPM{ID: pm.ID}
			for _, h := range pm.HostedVMs() {
				sp.VMs = append(sp.VMs, snapVM{
					ID:     h.VM.ID,
					Type:   h.VM.Type,
					Assign: record.AssignOf(h.Assign),
				})
			}
			st.PMs = append(st.PMs, sp)
		}
		for _, pm := range sh.cluster.UnusedPMs() {
			st.Unused = append(st.Unused, pm.ID)
		}
		snap.State[i] = st
	}
	return snap
}

// writeSnapshot persists snap atomically: write to a temp file in the
// same directory, fsync, rename. A crash mid-write leaves only a .tmp
// file recovery ignores.
func writeSnapshot(dir string, snap snapshotFile) error {
	final := filepath.Join(dir, snapshotName(snap.Seq))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(snap); err != nil {
		_ = f.Close()      // the encode error is the story
		_ = os.Remove(tmp) // best-effort cleanup of the partial file
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	return nil
}

// loadLatestSnapshot returns the newest parseable snapshot in dir, or
// ok=false when none exists. A corrupt newest snapshot fails recovery
// loudly rather than silently falling back to an older cut — an older
// snapshot plus the GC policy could not prove the intervening WAL
// segments still exist.
func loadLatestSnapshot(dir string) (snapshotFile, bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return snapshotFile{}, false, fmt.Errorf("serve: load snapshot: %w", err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := snapshotSeq(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return snapshotFile{}, false, nil
	}
	sort.Strings(names)
	newest := names[len(names)-1]
	data, err := os.ReadFile(filepath.Join(dir, newest))
	if err != nil {
		return snapshotFile{}, false, fmt.Errorf("serve: load snapshot %s: %w", newest, err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return snapshotFile{}, false, fmt.Errorf("serve: load snapshot %s: %w", newest, err)
	}
	if snap.Format != snapFormat {
		return snapshotFile{}, false, fmt.Errorf("serve: load snapshot %s: format %q", newest, snap.Format)
	}
	if snap.Version != snapVersion {
		return snapshotFile{}, false, fmt.Errorf("serve: load snapshot %s: version %d (reader speaks %d)", newest, snap.Version, snapVersion)
	}
	if seq, _ := snapshotSeq(newest); snap.Seq != seq {
		// GC trusts the name, replay the content: they must agree.
		return snapshotFile{}, false, fmt.Errorf("serve: load snapshot %s: cut at seq %d", newest, snap.Seq)
	}
	return snap, true, nil
}

// gcData removes files superseded by a successful snapshot at cut:
// WAL segments whose start seq is before the cut (their ops are all
// reflected in the snapshot) and older snapshots. Best-effort — a
// failed remove leaves harmless extra files.
func (s *Server) gcData(cut int64) {
	entries, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if seq, ok := segmentStart(name); ok && seq < cut {
			_ = os.Remove(filepath.Join(s.cfg.DataDir, name)) // best-effort GC
		}
		if seq, ok := snapshotSeq(name); ok && seq < cut {
			_ = os.Remove(filepath.Join(s.cfg.DataDir, name)) // best-effort GC
		}
	}
}

// recover rebuilds state from dir: apply the newest snapshot (when
// present), then replay every WAL op at or after the snapshot cut, in
// seq order, then derive the VM directory from the clusters. Only the
// final segment may end in a torn line.
func (s *Server) recover(dir string) (RecoveryInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return RecoveryInfo{}, fmt.Errorf("serve: recover: %w", err)
	}
	var info RecoveryInfo

	start := time.Now()
	snap, haveSnap, err := loadLatestSnapshot(dir)
	if err != nil {
		return RecoveryInfo{}, err
	}
	if haveSnap {
		if err := s.applySnapshot(snap); err != nil {
			return RecoveryInfo{}, err
		}
		info.SnapshotSeq = snap.Seq
	}
	info.SnapshotLoadSeconds = time.Since(start).Seconds()

	segs, err := listSegments(dir)
	if err != nil {
		return RecoveryInfo{}, err
	}
	maxSeq := snap.Seq - 1 // highest applied seq; snapshot covers < snap.Seq
	for i, name := range segs {
		last := i == len(segs)-1
		path := filepath.Join(dir, name)
		scan, err := readSegmentOps(path, last, func(op record.Op) error {
			if op.Seq < snap.Seq {
				// Pre-cut ops are already in the snapshot. (Only the
				// segment containing the cut can hold them; earlier
				// segments were GC'd or are fully pre-cut and skipped
				// op by op here.)
				return nil
			}
			if op.Seq != maxSeq+1 {
				return fmt.Errorf("serve: recover: seq gap: %d after %d (segment %s)", op.Seq, maxSeq, name)
			}
			if _, err := s.apply(op, placement.Hosted{}); err != nil {
				return fmt.Errorf("serve: replay seq %d: %w", op.Seq, err)
			}
			maxSeq = op.Seq
			info.ReplayedOps++
			return nil
		})
		if err != nil {
			return RecoveryInfo{}, err
		}
		info.SlowLines += scan.slowLines
		if scan.truncated {
			info.Truncated = true
			// A torn header heals itself: the new segment takes this
			// one's name. Torn ops would outlive it, so they go now.
			if scan.whole > 0 {
				if err := cutTornTail(path, scan.whole); err != nil {
					return RecoveryInfo{}, err
				}
			}
		}
	}
	if err := s.loc.rebuild(s.shards); err != nil {
		return RecoveryInfo{}, fmt.Errorf("serve: recover: %w", err)
	}
	info.ReplaySeconds = time.Since(start).Seconds() - info.SnapshotLoadSeconds

	info.NextSeq = maxSeq + 1
	if info.NextSeq < snap.Seq {
		info.NextSeq = snap.Seq
	}
	info.VMs = len(s.loc.m) // every placed VM, and recovery runs alone
	return info, nil
}

// applySnapshot replays a snapshot into the (empty) sharded state as
// the ops it stands for, through the same apply as the WAL tail: retire
// what was retired, host every VM in used-list order — recreating the
// used lists — then restore the unused-list orders and watermarks via
// Cluster.Reorder. apply routes by PM-id hash; the membership checks
// hold the snapshot to the same partition.
func (s *Server) applySnapshot(snap snapshotFile) error {
	if snap.Shards != len(s.shards) {
		return fmt.Errorf("serve: snapshot has %d shards, server configured for %d (re-sharding requires a fresh data dir)", snap.Shards, len(s.shards))
	}
	if len(snap.State) != snap.Shards {
		return fmt.Errorf("serve: snapshot has state for %d of %d shards", len(snap.State), snap.Shards)
	}
	for i, st := range snap.State {
		sh := s.shards[i]
		// Retire first: retired PMs are out of the inventory, so the
		// used/unused Reorder below must not see them.
		for _, pmID := range st.Retired {
			if _, ok := sh.pms[pmID]; !ok {
				return fmt.Errorf("serve: snapshot retired pm %d not in shard %d inventory", pmID, i)
			}
			if _, err := s.apply(record.Op{Kind: record.OpRetire, PM: pmID}, placement.Hosted{}); err != nil {
				return fmt.Errorf("serve: snapshot retired pm %d: %w", pmID, err)
			}
		}
		for _, sp := range st.PMs {
			if _, ok := sh.pms[sp.ID]; !ok {
				return fmt.Errorf("serve: snapshot pm %d not in shard %d inventory", sp.ID, i)
			}
			for _, sv := range sp.VMs {
				op := record.Op{Kind: record.OpPlace, VM: sv.ID, VMType: sv.Type, PM: sp.ID, Assign: sv.Assign}
				if _, err := s.apply(op, placement.Hosted{}); err != nil {
					return fmt.Errorf("serve: snapshot vm %d: %w", sv.ID, err)
				}
			}
		}
		if err := sh.cluster.Reorder(st.Used, st.Unused); err != nil {
			return fmt.Errorf("serve: snapshot shard %d: %w", i, err)
		}
		sh.cluster.MaxUsed = st.MaxUsed
	}
	return nil
}
