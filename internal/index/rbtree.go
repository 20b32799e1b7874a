// Package index provides the ordered index structures used by the LMerge
// algorithms: a generic red-black tree plus the two-tier (in2t) and
// three-tier (in3t) composites of paper Figure 1.
package index

// Tree is a left-leaning red-black balanced search tree (Sedgewick's LLRB, a
// red-black tree variant) mapping keys to values under a caller-supplied
// total order. It provides O(log n) insert, lookup, and delete, and in-order
// iteration — everything the in2t/in3t top tiers require.
type Tree[K, V any] struct {
	cmp  func(K, K) int
	root *treeNode[K, V]
	size int
}

type treeNode[K, V any] struct {
	key         K
	val         V
	left, right *treeNode[K, V]
	red         bool
}

// NewTree returns an empty tree ordered by cmp.
func NewTree[K, V any](cmp func(K, K) int) *Tree[K, V] {
	return &Tree[K, V]{cmp: cmp}
}

// Len returns the number of keys in the tree.
func (t *Tree[K, V]) Len() int { return t.size }

// Get returns the value stored under key.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	n := t.root
	for n != nil {
		switch c := t.cmp(key, n.key); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// Put inserts key → val, replacing any existing value.
func (t *Tree[K, V]) Put(key K, val V) {
	t.root = t.insert(t.root, key, val)
	t.root.red = false
}

func (t *Tree[K, V]) insert(h *treeNode[K, V], key K, val V) *treeNode[K, V] {
	if h == nil {
		t.size++
		return &treeNode[K, V]{key: key, val: val, red: true}
	}
	switch c := t.cmp(key, h.key); {
	case c < 0:
		h.left = t.insert(h.left, key, val)
	case c > 0:
		h.right = t.insert(h.right, key, val)
	default:
		h.val = val
	}
	return fixUp(h)
}

// Delete removes key, reporting whether it was present.
func (t *Tree[K, V]) Delete(key K) bool {
	_, ok := t.Pop(key)
	return ok
}

// Pop removes key and returns the value it held.
func (t *Tree[K, V]) Pop(key K) (V, bool) {
	val, ok := t.Get(key)
	if !ok {
		return val, false
	}
	t.root = t.delete(t.root, key)
	if t.root != nil {
		t.root.red = false
	}
	t.size--
	return val, true
}

func (t *Tree[K, V]) delete(h *treeNode[K, V], key K) *treeNode[K, V] {
	if t.cmp(key, h.key) < 0 {
		if !isRed(h.left) && !isRed(h.left.left) {
			h = moveRedLeft(h)
		}
		h.left = t.delete(h.left, key)
	} else {
		if isRed(h.left) {
			h = rotateRight(h)
		}
		if t.cmp(key, h.key) == 0 && h.right == nil {
			return nil
		}
		if !isRed(h.right) && !isRed(h.right.left) {
			h = moveRedRight(h)
		}
		if t.cmp(key, h.key) == 0 {
			m := min(h.right)
			h.key, h.val = m.key, m.val
			h.right = deleteMin(h.right)
		} else {
			h.right = t.delete(h.right, key)
		}
	}
	return fixUp(h)
}

// Min returns the smallest key and its value.
func (t *Tree[K, V]) Min() (K, V, bool) {
	if t.root == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	m := min(t.root)
	return m.key, m.val, true
}

// Max returns the largest key and its value.
func (t *Tree[K, V]) Max() (K, V, bool) {
	if t.root == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	n := t.root
	for n.right != nil {
		n = n.right
	}
	return n.key, n.val, true
}

// Floor returns the largest entry with key <= k.
func (t *Tree[K, V]) Floor(k K) (K, V, bool) {
	var bk K
	var bv V
	found := false
	n := t.root
	for n != nil {
		if t.cmp(n.key, k) <= 0 {
			bk, bv, found = n.key, n.val, true
			n = n.right
		} else {
			n = n.left
		}
	}
	return bk, bv, found
}

// Ceiling returns the smallest entry with key >= k.
func (t *Tree[K, V]) Ceiling(k K) (K, V, bool) {
	var bk K
	var bv V
	found := false
	n := t.root
	for n != nil {
		if t.cmp(n.key, k) >= 0 {
			bk, bv, found = n.key, n.val, true
			n = n.left
		} else {
			n = n.right
		}
	}
	return bk, bv, found
}

// Ascend visits all entries in key order until fn returns false.
func (t *Tree[K, V]) Ascend(fn func(K, V) bool) {
	ascend(t.root, fn)
}

func ascend[K, V any](n *treeNode[K, V], fn func(K, V) bool) bool {
	if n == nil {
		return true
	}
	if !ascend(n.left, fn) {
		return false
	}
	if !fn(n.key, n.val) {
		return false
	}
	return ascend(n.right, fn)
}

// Keys returns all keys in order (primarily for tests and diagnostics).
func (t *Tree[K, V]) Keys() []K {
	out := make([]K, 0, t.size)
	t.Ascend(func(k K, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}

func min[K, V any](n *treeNode[K, V]) *treeNode[K, V] {
	for n.left != nil {
		n = n.left
	}
	return n
}

func deleteMin[K, V any](h *treeNode[K, V]) *treeNode[K, V] {
	if h.left == nil {
		return nil
	}
	if !isRed(h.left) && !isRed(h.left.left) {
		h = moveRedLeft(h)
	}
	h.left = deleteMin(h.left)
	return fixUp(h)
}

func isRed[K, V any](n *treeNode[K, V]) bool { return n != nil && n.red }

func rotateLeft[K, V any](h *treeNode[K, V]) *treeNode[K, V] {
	x := h.right
	h.right = x.left
	x.left = h
	x.red = h.red
	h.red = true
	return x
}

func rotateRight[K, V any](h *treeNode[K, V]) *treeNode[K, V] {
	x := h.left
	h.left = x.right
	x.right = h
	x.red = h.red
	h.red = true
	return x
}

func flipColors[K, V any](h *treeNode[K, V]) {
	h.red = !h.red
	h.left.red = !h.left.red
	h.right.red = !h.right.red
}

func fixUp[K, V any](h *treeNode[K, V]) *treeNode[K, V] {
	if isRed(h.right) && !isRed(h.left) {
		h = rotateLeft(h)
	}
	if isRed(h.left) && isRed(h.left.left) {
		h = rotateRight(h)
	}
	if isRed(h.left) && isRed(h.right) {
		flipColors(h)
	}
	return h
}

func moveRedLeft[K, V any](h *treeNode[K, V]) *treeNode[K, V] {
	flipColors(h)
	if isRed(h.right.left) {
		h.right = rotateRight(h.right)
		h = rotateLeft(h)
		flipColors(h)
	}
	return h
}

func moveRedRight[K, V any](h *treeNode[K, V]) *treeNode[K, V] {
	flipColors(h)
	if isRed(h.left.left) {
		h = rotateRight(h)
		flipColors(h)
	}
	return h
}

// validate checks the red-black invariants; it returns a description of the
// first violation, or "" if the tree is valid. Exposed to the package tests.
func (t *Tree[K, V]) validate() string {
	if isRed(t.root) {
		return "root is red"
	}
	_, msg := validateNode(t.root, t.cmp)
	return msg
}

func validateNode[K, V any](n *treeNode[K, V], cmp func(K, K) int) (blackHeight int, msg string) {
	if n == nil {
		return 1, ""
	}
	if isRed(n.right) {
		return 0, "right-leaning red link"
	}
	if isRed(n) && isRed(n.left) {
		return 0, "consecutive red links"
	}
	if n.left != nil && cmp(n.left.key, n.key) >= 0 {
		return 0, "left child out of order"
	}
	if n.right != nil && cmp(n.right.key, n.key) <= 0 {
		return 0, "right child out of order"
	}
	lh, m := validateNode(n.left, cmp)
	if m != "" {
		return 0, m
	}
	rh, m := validateNode(n.right, cmp)
	if m != "" {
		return 0, m
	}
	if lh != rh {
		return 0, "black-height mismatch"
	}
	if !isRed(n) {
		lh++
	}
	return lh, ""
}
