package obs

import (
	"encoding/json"
	"sync"
	"time"
)

// Event is one structured trace record — a placement decision, an
// eviction, a table build. Fields keep insertion order so traces read
// the way the emitting layer wrote them.
type Event struct {
	Name   string
	Time   time.Time
	Fields []Field
}

// Field is one key/value pair of an event.
type Field struct {
	Key string
	Val any
}

// F builds a Field; the emit-site shorthand.
func F(key string, val any) Field { return Field{Key: key, Val: val} }

func (e Event) stamped() Event {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	return e
}

// MarshalJSON renders the event as a flat object: name, time, then
// the fields in order.
func (e Event) MarshalJSON() ([]byte, error) {
	var buf []byte
	buf = append(buf, '{')
	appendKV := func(key string, val any) error {
		if len(buf) > 1 {
			buf = append(buf, ',')
		}
		k, err := json.Marshal(key)
		if err != nil {
			return err
		}
		v, err := json.Marshal(val)
		if err != nil {
			return err
		}
		buf = append(buf, k...)
		buf = append(buf, ':')
		buf = append(buf, v...)
		return nil
	}
	if err := appendKV("event", e.Name); err != nil {
		return nil, err
	}
	if err := appendKV("time", e.Time.Format(time.RFC3339Nano)); err != nil {
		return nil, err
	}
	for _, f := range e.Fields {
		if err := appendKV(f.Key, f.Val); err != nil {
			return nil, err
		}
	}
	buf = append(buf, '}')
	return buf, nil
}

// EventSink receives emitted events. Implementations must be safe for
// concurrent Emit calls.
type EventSink interface {
	Emit(Event)
}

// RingSink keeps the most recent events in a fixed-capacity ring — the
// backing store of the HTTP /events endpoint.
type RingSink struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total int64
}

// NewRingSink returns a sink retaining the last capacity events
// (capacity <= 0 selects 1024).
func NewRingSink(capacity int) *RingSink {
	if capacity <= 0 {
		capacity = 1024
	}
	return &RingSink{buf: make([]Event, 0, capacity)}
}

// Emit implements EventSink. No-op on a nil receiver.
func (r *RingSink) Emit(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
}

// Events returns the retained events, oldest first; nil on a nil
// receiver.
func (r *RingSink) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Total returns how many events were ever emitted (including evicted
// ones).
func (r *RingSink) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
