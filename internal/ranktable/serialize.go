package ranktable

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"pagerankvm/internal/lattice"
	"pagerankvm/internal/resource"
)

// tableVersion is the Save format revision. Version 1 (never stamped)
// keyed scores by canonical profile string and is not readable.
const tableVersion = 2

// tableWire is the gob wire format of a Table: what NewJoint was given
// (shape groups and the lattice's active VM types, in wiring order)
// plus what it computed (the id-indexed scores and build stats). The
// lattice and the move table are rebuilt on load, so the format holds
// no maps and encodes to the same bytes every time.
type tableWire struct {
	Version int
	Groups  []resource.Group
	Types   []resource.VMType
	Scores  []float64
	Stats   BuildStats
}

// Save writes the table to w in gob format. Ranking a large lattice is
// much slower than loading its scores, so production deployments build
// once (the paper: "the graph and Profile-PageRank score table are
// relatively stable during a certain period of time") and distribute
// the serialized table.
func (t *Table) Save(w io.Writer) error {
	wire := tableWire{
		Version: tableVersion,
		Groups:  make([]resource.Group, t.shape.NumGroups()),
		Types:   make([]resource.VMType, t.space.NumTypes()),
		Scores:  t.ids,
		Stats:   t.stats,
	}
	for i := range wire.Groups {
		wire.Groups[i] = t.shape.Group(i)
	}
	for i := range wire.Types {
		wire.Types[i] = t.space.TypeAt(i)
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("ranktable: save: %w", err)
	}
	return nil
}

// LoadTable reads a table previously written by Save and rebuilds its
// lattice and move table, so the result scores exactly — and as fast —
// as the table that was saved. Files in another format version, with a
// score vector that does not match the lattice, or with a score that
// is not a finite non-negative number (Factored multiplies scores and
// relies on that) are rejected.
func LoadTable(r io.Reader) (*Table, error) {
	var wire tableWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("ranktable: load: %w", err)
	}
	if wire.Version != tableVersion {
		return nil, fmt.Errorf("ranktable: load: format version %d, want %d", wire.Version, tableVersion)
	}
	shape, err := resource.NewShape(wire.Groups...)
	if err != nil {
		return nil, fmt.Errorf("ranktable: load: %w", err)
	}
	// Checked before the lattice is built: a file can only ask for as
	// many nodes as it carries scores for.
	if np := shape.NumProfiles(); int64(len(wire.Scores)) != np {
		return nil, fmt.Errorf("ranktable: load: %d scores for a lattice of %d profiles", len(wire.Scores), np)
	}
	for i, s := range wire.Scores {
		if !(s >= 0) || math.IsInf(s, 1) {
			return nil, fmt.Errorf("ranktable: load: score %d is %v, want finite and non-negative", i, s)
		}
	}
	space, err := lattice.NewSpace(shape, wire.Types, lattice.Options{})
	if err != nil {
		return nil, fmt.Errorf("ranktable: load: %w", err)
	}
	if space.NumTypes() != len(wire.Types) || space.Len() != wire.Stats.Nodes || space.Edges() != wire.Stats.Edges {
		return nil, fmt.Errorf("ranktable: load: lattice rebuilt from the file has %d types, %d nodes, %d edges; file says %d, %d, %d",
			space.NumTypes(), space.Len(), space.Edges(), len(wire.Types), wire.Stats.Nodes, wire.Stats.Edges)
	}
	t := &Table{shape: shape, ids: wire.Scores, space: space, stats: wire.Stats}
	t.buildBest()
	return t, nil
}

// Registry maps PM type names to their rankers. A datacenter with
// heterogeneous PM types (Table II: M3 and C3) holds one ranker per
// type. Registry is not safe for concurrent mutation; build it up
// front.
type Registry struct {
	rankers map[string]Ranker
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{rankers: make(map[string]Ranker)}
}

// Add registers a ranker under a PM type name, replacing any previous
// entry.
func (r *Registry) Add(pmType string, ranker Ranker) {
	r.rankers[pmType] = ranker
}

// Get returns the ranker for a PM type name.
func (r *Registry) Get(pmType string) (Ranker, bool) {
	ranker, ok := r.rankers[pmType]
	return ranker, ok
}

// Len returns the number of registered PM types.
func (r *Registry) Len() int { return len(r.rankers) }
