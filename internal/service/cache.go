package service

import (
	"container/list"
	"context"
	"sync"
)

// lruCache is a bounded canonical-key LRU with in-flight dedupe, the
// mechanism behind a node's warm-shard store and its replicated results.
// Completed entries live on an LRU list and are evicted least-recently-used
// once the bound is exceeded; an entry whose computation is still in flight is tracked in the
// map but is never evicted and blocks duplicate computations — concurrent
// Do calls for one key share a single fn run. The job-level result cache in
// Server uses the same canonical-key idea but stays fused with the job
// table (a cached job must remain addressable by ID); this type is the
// standalone form for values that are plain data.
type lruCache[V any] struct {
	mu      sync.Mutex
	size    int
	entries map[string]*cacheEntry[V]
	order   *list.List // completed entries; least recently used at front
}

type cacheEntry[V any] struct {
	key  string
	done chan struct{} // closed when the computation finishes either way
	val  V
	elem *list.Element // non-nil once completed successfully and retained
}

// newLRUCache returns a cache bounded to size completed entries (0 = 256).
func newLRUCache[V any](size int) *lruCache[V] {
	if size <= 0 {
		size = 256
	}
	return &lruCache[V]{
		size:    size,
		entries: make(map[string]*cacheEntry[V]),
		order:   list.New(),
	}
}

// Do returns the cached value for key, or computes it by running fn. The
// bool reports a cache hit. While a computation is in flight, other Do
// calls for the same key wait for it instead of starting their own; a nil
// ctx waits indefinitely, a non-nil one bounds the wait. A failed fn is not
// cached — its error is returned to the caller that ran it, and waiters
// re-enter the loop, one of them becoming the new leader — so transient
// failures (a cancelled shard, a dead worker) never poison the key.
func (c *lruCache[V]) Do(ctx context.Context, key string, fn func() (V, error)) (V, bool, error) {
	var zero V
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			if e.elem != nil { // completed
				c.order.MoveToBack(e.elem)
				v := e.val
				c.mu.Unlock()
				return v, true, nil
			}
			done := e.done
			c.mu.Unlock()
			if ctx == nil {
				<-done
			} else {
				select {
				case <-ctx.Done():
					return zero, false, ctx.Err()
				case <-done:
				}
			}
			continue
		}
		e := &cacheEntry[V]{key: key, done: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()

		v, err := fn()
		c.mu.Lock()
		if err != nil {
			// Release the slot only if it is still ours (it always is — an
			// in-flight entry blocks new leaders and is never evicted — but
			// the guard keeps a future refactor from deleting a successor).
			if c.entries[key] == e {
				delete(c.entries, key)
			}
		} else {
			e.val = v
			e.elem = c.order.PushBack(e)
			c.evictLocked()
		}
		c.mu.Unlock()
		close(e.done)
		if err != nil {
			return zero, false, err
		}
		return v, false, nil
	}
}

// Get returns the completed value for key, refreshing its LRU slot.
func (c *lruCache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.elem != nil {
		c.order.MoveToBack(e.elem)
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put inserts a completed value, replacing any completed entry for key. An
// in-flight entry is left to its leader — the eventual Do result wins.
func (c *lruCache[V]) Put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		if e.elem == nil {
			return
		}
		e.val = v
		c.order.MoveToBack(e.elem)
		return
	}
	e := &cacheEntry[V]{key: key, val: v}
	e.elem = c.order.PushBack(e)
	c.entries[key] = e
	c.evictLocked()
}

// Len returns the number of completed entries.
func (c *lruCache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

func (c *lruCache[V]) evictLocked() {
	for c.order.Len() > c.size {
		old := c.order.Remove(c.order.Front()).(*cacheEntry[V])
		delete(c.entries, old.key)
	}
}
