// Package splay implements a top-down splay tree keyed by uint64.
//
// BCC — and therefore KGCC — "maintains a map of currently allocated
// memory in a splay tree; the tree is consulted before any memory
// operation" (§3.4). Splaying brings the most recently touched object
// to the root, which is nearly optimal under the reference locality of
// single-threaded kernel code and degrades under multi-threaded
// interleavings; the paper's §3.5 discussion (and our
// BenchmarkAblationSplayLocality) measures exactly that effect, so the
// tree counts every comparison and rotation it performs.
package splay

// Tree is a splay tree mapping uint64 keys to values of type V.
// The zero value is an empty tree.
type Tree[V any] struct {
	root *node[V]
	size int
	// free chains deleted nodes (through their left pointers) for
	// reuse: the KGCC object map registers and unregisters the same
	// frame objects on every probe fire, and recycling keeps that
	// steady state allocation-free.
	free *node[V]

	// Touches counts nodes visited across all operations; Splays
	// counts splay operations. The KGCC runtime charges lookup cost
	// proportionally to Touches deltas.
	Touches uint64
	Splays  uint64
}

type node[V any] struct {
	key         uint64
	val         V
	left, right *node[V]
}

// Len reports the number of stored keys.
func (t *Tree[V]) Len() int { return t.size }

// splay moves the node with the given key (or the last node on the
// search path) to the root, using top-down splaying.
func (t *Tree[V]) splay(key uint64) {
	if t.root == nil {
		return
	}
	t.Splays++
	var header node[V]
	left, right := &header, &header
	cur := t.root
	for {
		t.Touches++
		if key < cur.key {
			if cur.left == nil {
				break
			}
			if key < cur.left.key {
				// Rotate right.
				y := cur.left
				cur.left = y.right
				y.right = cur
				cur = y
				t.Touches++
				if cur.left == nil {
					break
				}
			}
			right.left = cur
			right = cur
			cur = cur.left
		} else if key > cur.key {
			if cur.right == nil {
				break
			}
			if key > cur.right.key {
				// Rotate left.
				y := cur.right
				cur.right = y.left
				y.left = cur
				cur = y
				t.Touches++
				if cur.right == nil {
					break
				}
			}
			left.right = cur
			left = cur
			cur = cur.right
		} else {
			break
		}
	}
	left.right = cur.left
	right.left = cur.right
	cur.left = header.right
	cur.right = header.left
	t.root = cur
}

// newNode takes a node from the free list or allocates one.
func (t *Tree[V]) newNode(key uint64, val V) *node[V] {
	if n := t.free; n != nil {
		t.free = n.left
		n.key, n.val, n.left, n.right = key, val, nil, nil
		return n
	}
	return &node[V]{key: key, val: val}
}

// Insert stores val under key, replacing any existing value.
func (t *Tree[V]) Insert(key uint64, val V) {
	if t.root == nil {
		t.root = t.newNode(key, val)
		t.size++
		return
	}
	t.splay(key)
	if t.root.key == key {
		t.root.val = val
		return
	}
	n := t.newNode(key, val)
	if key < t.root.key {
		n.left = t.root.left
		n.right = t.root
		t.root.left = nil
	} else {
		n.right = t.root.right
		n.left = t.root
		t.root.right = nil
	}
	t.root = n
	t.size++
}

// Find returns the value stored under key. The matched node is
// splayed to the root.
func (t *Tree[V]) Find(key uint64) (V, bool) {
	var zero V
	if t.root == nil {
		return zero, false
	}
	t.splay(key)
	if t.root.key == key {
		return t.root.val, true
	}
	return zero, false
}

// FindFloor returns the greatest key <= key and its value. This is
// the operation the KGCC object map uses: given a pointer, find the
// object whose base is at or below it, then range-check.
func (t *Tree[V]) FindFloor(key uint64) (uint64, V, bool) {
	var zero V
	if t.root == nil {
		return 0, zero, false
	}
	t.splay(key)
	if t.root.key <= key {
		return t.root.key, t.root.val, true
	}
	// Root is the successor; the floor is the maximum of the left
	// subtree.
	cur := t.root.left
	if cur == nil {
		return 0, zero, false
	}
	for cur.right != nil {
		t.Touches++
		cur = cur.right
	}
	return cur.key, cur.val, true
}

// Delete removes key, reporting whether it was present.
func (t *Tree[V]) Delete(key uint64) bool {
	if t.root == nil {
		return false
	}
	t.splay(key)
	if t.root.key != key {
		return false
	}
	dead := t.root
	if dead.left == nil {
		t.root = dead.right
	} else {
		right := dead.right
		t.root = dead.left
		t.splay(key) // max of left subtree becomes root; its right is nil
		t.root.right = right
	}
	var zero V
	dead.val, dead.right = zero, nil
	dead.left, t.free = t.free, dead
	t.size--
	return true
}

// Walk visits all entries in ascending key order. Walking does not
// splay.
func (t *Tree[V]) Walk(fn func(key uint64, val V) bool) {
	var rec func(n *node[V]) bool
	rec = func(n *node[V]) bool {
		if n == nil {
			return true
		}
		if !rec(n.left) {
			return false
		}
		if !fn(n.key, n.val) {
			return false
		}
		return rec(n.right)
	}
	rec(t.root)
}

// Min returns the smallest key.
func (t *Tree[V]) Min() (uint64, V, bool) {
	var zero V
	if t.root == nil {
		return 0, zero, false
	}
	cur := t.root
	for cur.left != nil {
		cur = cur.left
	}
	return cur.key, cur.val, true
}
