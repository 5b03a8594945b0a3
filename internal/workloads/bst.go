package workloads

import (
	"fmt"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/tm"
)

// BST is an unbalanced binary search tree. Each 32-byte node packs the
// key, value and both child pointers, giving the intermediate intra-
// transaction cache reuse the paper reports for its BST (~38%): every
// visit loads the key and then a child pointer from the same line.
//
// The lock baseline serialises all operations through the structure-wide
// lock — the paper's locking algorithm "locks the root to handle tree
// rotations; thus the locking approach does not scale at all" (Fig 18) —
// while the TM versions conflict only on the records they actually touch.
type BST struct {
	root     uint64 // address of the root pointer cell
	keySpace uint64
	initial  uint64
}

// BST node field offsets.
const (
	bstKey   = 0
	bstVal   = 8
	bstLeft  = 16
	bstRight = 24
	bstSize  = 32
)

// visitCost is the application compute per node visit (comparison, branch,
// call overhead), charged so TM overhead ratios are measured against a
// realistic amount of work.
const visitCost = 5

// maxTreeSteps bounds traversals: a consistent tree can never need this
// many steps, so exceeding it means the transaction is a zombie reading a
// transiently cyclic structure; periodic validation will abort it, this
// bound just keeps the walk finite in the meantime.
const maxTreeSteps = 1 << 14

// NewBST allocates a tree that Populate fills with `initial` keys.
func NewBST(m *mem.Memory, initial uint64) *BST {
	return &BST{
		root:     m.Alloc(mem.LineSize, mem.LineSize),
		keySpace: initial * 2,
		initial:  initial,
	}
}

// Name identifies the workload.
func (b *BST) Name() string { return "bst" }

// KeySpace returns the key universe size.
func (b *BST) KeySpace() uint64 { return b.keySpace }

func newBSTNode(tx tm.Txn, key, val uint64) uint64 {
	// One node per cache line: with line-granularity conflict detection,
	// co-located nodes would share a transaction record and generate
	// false conflicts on every sibling update.
	n := tx.Alloc(bstSize, mem.LineSize)
	tx.StoreInit(n+bstKey, key)
	tx.StoreInit(n+bstVal, val)
	return n
}

// Lookup returns the value stored for key.
func (b *BST) Lookup(tx tm.Txn, key uint64) (uint64, bool) {
	cur := tx.Load(b.root)
	for steps := 0; cur != 0 && steps < maxTreeSteps; steps++ {
		tx.Exec(visitCost)
		k := tx.Load(cur + bstKey)
		switch {
		case key == k:
			return tx.Load(cur + bstVal), true
		case key < k:
			cur = tx.Load(cur + bstLeft)
		default:
			cur = tx.Load(cur + bstRight)
		}
	}
	return 0, false
}

// Insert adds key→val, returning false (and refreshing the value) if the
// key already exists. New nodes are allocated and initialised outside
// transactional control; an abort merely leaks the node, as a GC would
// reclaim it.
func (b *BST) Insert(tx tm.Txn, key, val uint64) bool {
	parent := uint64(0)
	parentField := uint64(0)
	cur := tx.Load(b.root)
	for steps := 0; cur != 0 && steps < maxTreeSteps; steps++ {
		tx.Exec(visitCost)
		k := tx.Load(cur + bstKey)
		switch {
		case key == k:
			tx.Store(cur+bstVal, val)
			return false
		case key < k:
			parent, parentField = cur, bstLeft
			cur = tx.Load(cur + bstLeft)
		default:
			parent, parentField = cur, bstRight
			cur = tx.Load(cur + bstRight)
		}
	}
	n := newBSTNode(tx, key, val)
	if parent == 0 {
		tx.Store(b.root, n)
	} else {
		tx.Store(parent+parentField, n)
	}
	return true
}

// Delete removes key with the standard splice: leaf and one-child cases
// re-link the parent; two-child nodes are overwritten with their in-order
// successor, which is then spliced out.
func (b *BST) Delete(tx tm.Txn, key uint64) bool {
	parent := uint64(0)
	parentField := uint64(0)
	cur := tx.Load(b.root)
	steps := 0
	for cur != 0 && steps < maxTreeSteps {
		steps++
		tx.Exec(visitCost)
		k := tx.Load(cur + bstKey)
		if key == k {
			break
		}
		if key < k {
			parent, parentField = cur, bstLeft
			cur = tx.Load(cur + bstLeft)
		} else {
			parent, parentField = cur, bstRight
			cur = tx.Load(cur + bstRight)
		}
	}
	if cur == 0 {
		return false
	}

	left := tx.Load(cur + bstLeft)
	right := tx.Load(cur + bstRight)
	if left != 0 && right != 0 {
		// Two children: find the in-order successor (leftmost of the
		// right subtree), copy it into cur, then splice it out.
		sParent, sField := cur, uint64(bstRight)
		s := right
		for steps = 0; steps < maxTreeSteps; steps++ {
			l := tx.Load(s + bstLeft)
			if l == 0 {
				break
			}
			sParent, sField = s, bstLeft
			s = l
		}
		tx.Store(cur+bstKey, tx.Load(s+bstKey))
		tx.Store(cur+bstVal, tx.Load(s+bstVal))
		tx.Store(sParent+sField, tx.Load(s+bstRight))
		return true
	}

	child := left
	if child == 0 {
		child = right
	}
	if parent == 0 {
		tx.Store(b.root, child)
	} else {
		tx.Store(parent+parentField, child)
	}
	return true
}

// Populate inserts the initial keys directly.
func (b *BST) Populate(m *mem.Memory, r *Rand) {
	d := Direct{M: m}
	inserted := uint64(0)
	for inserted < b.initial {
		if b.Insert(d, r.Intn(b.keySpace), r.Next()) {
			inserted++
		}
	}
}

// CheckInvariants walks the tree through raw memory and verifies the
// search invariant: every node's key lies strictly inside the open
// interval its ancestors imply, keys are within the key universe, and the
// walk terminates (no cycles, no runaway size). Every node holds a
// distinct key of the key universe, so a walk that visits more than
// keySpace nodes has met a cycle or corruption.
func (b *BST) CheckInvariants(m *mem.Memory) error {
	d := Direct{M: m}
	var visited uint64
	var walk func(node, lo, hi uint64, hasLo, hasHi bool) error
	walk = func(node, lo, hi uint64, hasLo, hasHi bool) error {
		if node == 0 {
			return nil
		}
		visited++
		if visited > b.keySpace {
			return fmt.Errorf("bst: walk exceeded %d nodes, the key space (cycle or corruption)", b.keySpace)
		}
		k := d.Load(node + bstKey)
		if k >= b.keySpace {
			return fmt.Errorf("bst: node %#x holds key %d outside key space %d", node, k, b.keySpace)
		}
		if hasLo && k <= lo {
			return fmt.Errorf("bst: ordering violated at node %#x: key %d <= ancestor bound %d", node, k, lo)
		}
		if hasHi && k >= hi {
			return fmt.Errorf("bst: ordering violated at node %#x: key %d >= ancestor bound %d", node, k, hi)
		}
		if err := walk(d.Load(node+bstLeft), lo, k, hasLo, true); err != nil {
			return err
		}
		return walk(d.Load(node+bstRight), k, hi, true, hasHi)
	}
	return walk(d.Load(b.root), 0, 0, false, false)
}

// Op performs one BST operation.
func (b *BST) Op(tx tm.Txn, r *Rand, update bool) error {
	key := r.Intn(b.keySpace)
	if !update {
		b.Lookup(tx, key)
		return nil
	}
	if r.Percent(50) {
		b.Insert(tx, key, r.Next())
		return nil
	}
	b.Delete(tx, key)
	return nil
}
