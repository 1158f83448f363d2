package analysis

import (
	"go/ast"
	"go/types"
)

// Atomicmix flags every use of a package-level sync/atomic function
// (atomic.AddInt64, LoadUint32, CompareAndSwapPointer, ...).
//
// Those functions act on a plain int64/uint32/pointer that the rest of
// the code can also load or store plainly, and mixing the two breaks
// the memory model both ways: a plain read can observe a stale value
// concurrently with atomic writers, and a plain write can be lost
// under an atomic read-modify-write. The race detector only catches
// the mix when both sides collide during a test run. The typed atomics
// (atomic.Int64, atomic.Pointer[T], ...) have no plain load or store at
// all, and go vet's copylocks flags copying one, so a value kept in one
// cannot be mixed — their methods are the allowed form.
var Atomicmix = &Analyzer{
	Name: "atomicmix",
	Doc:  "use sync/atomic's typed atomics, not its package-level functions, so no value is accessed both atomically and plainly",
	Run:  runAtomicmix,
}

func runAtomicmix(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" ||
				fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			pass.Reportf(id.Pos(),
				"atomic.%s leaves its operand open to plain loads and stores; keep the value in a typed atomic (atomic.Int64, atomic.Pointer[T], ...) and call its method",
				fn.Name())
			return true
		})
	}
	return nil
}
