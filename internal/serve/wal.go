package serve

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pagerankvm/internal/obs/record"
)

// walPrefix / walSuffix frame a segment file name: wal-<first seq,
// 16 digits>.jsonl. Naming segments by their first seq makes the
// snapshot cut a pure file-name comparison — every segment whose name
// is < the snapshot seq is fully reflected in the snapshot.
const (
	walPrefix = "wal-"
	walSuffix = ".jsonl"
)

// segmentName renders the file name of the segment starting at seq.
func segmentName(seq int64) string {
	return fmt.Sprintf("%s%016d%s", walPrefix, seq, walSuffix)
}

// segmentStart parses a segment file name back to its starting seq,
// reporting whether name is a segment at all.
func segmentStart(name string) (int64, bool) {
	if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, walSuffix) {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, walPrefix), walSuffix)
	seq, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || seq < 0 {
		return 0, false
	}
	return seq, true
}

// listSegments returns the WAL segment file names in dir in ascending
// start-seq order.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: list wal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := segmentStart(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // fixed-width digits: lexical order == seq order
	return names, nil
}

// wal is the daemon's write-ahead log: one active record.Recorder
// segment whose op lines carry the recording-wide seq, rotated at
// snapshot cuts so old segments become garbage-collectable.
//
// Locking: appendOp is called under the owning shard's lock (by commit
// and the descheduler's OnMove hook), which is what makes per-PM WAL
// order equal apply order; wal.mu only serializes appenders on different
// shards against each other and against flush/rotate. flush is called
// by barrier alone — off the shard locks on the request paths, under
// one where a round or a compensation must be durable before the shard
// moves on. Lock order is shard.mu -> wal.mu, never the reverse.
type wal struct {
	mu    sync.Mutex
	dir   string // "" = discard mode (no durability)
	fsync bool
	rec   *record.Recorder
	// pending counts ops appended since the last flush — what the next
	// successful flush makes durable.
	pending int64
}

// walMeta stamps WAL segment headers so recordings are self-describing
// when inspected with the prvm-replay tooling.
func walMeta(startSeq int64) record.RunMeta {
	return record.RunMeta{
		Kind:   "serve-wal",
		Labels: map[string]string{"start_seq": strconv.FormatInt(startSeq, 10)},
	}
}

// openWAL opens a fresh segment starting at startSeq in dir, or a
// discard-mode wal when dir is empty (seqs are still assigned so the
// API behaves identically, but nothing persists).
func openWAL(dir string, startSeq int64, fsync bool) (*wal, error) {
	w := &wal{dir: dir, fsync: fsync}
	if dir == "" {
		rec, err := record.NewWriter(io.Discard, walMeta(startSeq))
		if err != nil {
			return nil, fmt.Errorf("serve: open wal: %w", err)
		}
		rec.SetNextSeq(startSeq)
		w.rec = rec
		return w, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: open wal: %w", err)
	}
	rec, err := createSegment(dir, startSeq, fsync)
	if err != nil {
		return nil, fmt.Errorf("serve: open wal: %w", err)
	}
	w.rec = rec
	return w, nil
}

// createSegment creates the segment starting at seq with its header
// already synced: a crash could otherwise leave an unparseable file
// ahead of acknowledged ops in a later segment. With fsync set the
// directory is synced too, so the new file's name survives a machine
// crash along with the ops later synced into it.
func createSegment(dir string, seq int64, fsync bool) (*record.Recorder, error) {
	rec, err := record.Create(filepath.Join(dir, segmentName(seq)), walMeta(seq))
	if err != nil {
		return nil, err
	}
	rec.SetNextSeq(seq)
	err = rec.Sync()
	if err == nil && fsync {
		err = syncDir(dir)
	}
	if err != nil {
		_ = rec.Close() // the sync error is the story
		return nil, err
	}
	return rec, nil
}

// syncDir makes dir's entries durable: a file created or renamed there
// survives a machine crash only once the directory itself is synced. A
// variable so tests can make it fail.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendOp appends one op and returns its assigned seq. The caller must
// hold the lock of the shard the op mutates and must pass the barrier
// before acknowledging.
func (w *wal) appendOp(op record.Op) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pending++
	return w.rec.RecordOp(op)
}

// flush pushes buffered ops to the OS (and to stable storage when fsync
// is configured) and returns how many ops that made durable: every
// append since the previous flush, whichever shard made it. With
// nothing pending — another caller's flush already took this caller's
// op — it returns at once, without a syscall.
func (w *wal) flush() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pending == 0 {
		return 0, nil
	}
	if err := w.sync(); err != nil {
		return 0, err
	}
	n := w.pending
	w.pending = 0
	return n, nil
}

// sync is flush's write: to the OS, and to stable storage with fsync.
// The caller holds w.mu.
func (w *wal) sync() error {
	if w.fsync {
		return w.rec.Sync()
	}
	return w.rec.Flush()
}

// nextSeq returns the seq the next appended op will be assigned.
func (w *wal) nextSeq() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rec.NextSeq()
}

// rotate closes the active segment and opens a new one starting at
// cutSeq. The caller (snapshot) must have quiesced all shards, so no
// append can interleave; cutSeq must equal the current next seq.
func (w *wal) rotate(cutSeq int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dir == "" {
		return nil
	}
	if err := w.seal(); err != nil {
		return fmt.Errorf("serve: rotate wal: %w", err)
	}
	rec, err := createSegment(w.dir, cutSeq, w.fsync)
	if err != nil {
		return fmt.Errorf("serve: rotate wal: %w", err)
	}
	w.rec = rec
	return nil
}

// close seals the active segment.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seal()
}

// seal makes the pending ops durable as flush would — so no op is left
// unsynced in a segment no later flush reaches — and closes the active
// segment; a request whose op it covered finds nothing pending at its
// own flush. The caller holds w.mu.
func (w *wal) seal() error {
	err := w.sync()
	if cerr := w.rec.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		w.pending = 0
	}
	return err
}

// segmentScan is what reading one segment found besides its ops.
type segmentScan struct {
	// truncated: the scan stopped at a line that does not decode, and
	// was told to tolerate one (a torn tail). whole is then the length
	// of the prefix that decoded — 0 when not even the header did.
	truncated bool
	whole     int64
	// slowLines counts op lines that decoded through encoding/json.
	slowLines int
}

// opBatch is one hand-off from the decoding goroutine, recycled once
// applied: ops in file order, their assignments copied into one arena,
// and, on the batch that ends the scan, why it ended.
type opBatch struct {
	ops   []record.Op
	arena []record.OpAssign
	err   error
}

// batchOps sizes a hand-off: enough ops that the channel costs nothing
// per op, few enough that the decoded-but-unapplied stay ~100 KB.
const batchOps = 256

// readSegmentOps streams the ops of one segment to fn in file order,
// starting the scan at the segment's header. Reading and decoding run
// a bounded distance ahead on their own goroutine; fn runs on the
// caller's, so replay's apply stays single-threaded and in seq order
// (DESIGN.md §14 says why); an error from fn ends the scan. The
// op fn gets, assignment included, is reused once fn returns: fn copies
// what it keeps. A decode error with tolerateTail set is treated as a
// torn tail — the scan stops and truncated is reported — which is only
// legal for the final segment of a recovery scan; earlier segments were
// sealed by rotation and must parse completely.
func readSegmentOps(path string, tolerateTail bool, fn func(record.Op) error) (segmentScan, error) {
	r, err := record.Open(path)
	if err != nil {
		if tolerateTail {
			// A crash can tear even the header of a just-rotated
			// segment; nothing acknowledged can live in it.
			return segmentScan{truncated: true}, nil
		}
		return segmentScan{}, err
	}
	defer func() { _ = r.Close() }() // read-only close; scan error is the story

	// Two queued batches keep the decoder busy while one is applied, so
	// at most four exist, and free, sized to hold them all, takes back an
	// applied one without blocking.
	batches := make(chan *opBatch, 2)
	free := make(chan *opBatch, 4)
	stop := make(chan struct{})
	go func() {
		defer close(batches)
		for err := error(nil); err == nil; {
			var b *opBatch
			select {
			case b = <-free:
			default:
				b = &opBatch{ops: make([]record.Op, 0, batchOps)}
			}
			b.ops, b.arena, b.err = b.ops[:0], b.arena[:0], nil
			for b.err == nil && len(b.ops) < batchOps {
				var e record.Entry
				if e, b.err = r.Next(); b.err == nil && e.Op != nil {
					b.ops = append(b.ops, *e.Op) // Next reuses its op: copy it, assignment into the arena
					if op, n := &b.ops[len(b.ops)-1], len(b.arena); len(op.Assign) > 0 {
						b.arena = append(b.arena, op.Assign...)
						op.Assign = b.arena[n:len(b.arena):len(b.arena)]
					}
				}
			}
			select {
			case batches <- b:
				err = b.err
			case <-stop:
				return
			}
		}
	}()
	var scanErr, fnErr error
	for b := range batches { // to the close: the decoder owns r until then
		for i := 0; fnErr == nil && i < len(b.ops); i++ {
			if fnErr = fn(b.ops[i]); fnErr != nil {
				close(stop)
			}
		}
		scanErr = b.err
		free <- b
	}
	scan := segmentScan{slowLines: r.SlowLines()}
	switch {
	case fnErr != nil || scanErr == io.EOF:
		return scan, fnErr
	case tolerateTail:
		scan.truncated, scan.whole = true, r.Offset()
		return scan, nil
	}
	return scan, scanErr
}

// cutTornTail shortens the final segment to the prefix that decoded,
// durably, before a newer segment is created: every file but the last
// is read strictly, and this one is about to stop being the last.
func cutTornTail(path string, whole int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err == nil {
		if err = f.Truncate(whole); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("serve: cut torn wal tail: %w", err)
	}
	return nil
}
