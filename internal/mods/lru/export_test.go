package lru

// Order returns the resident block offsets, most recent first, and the
// offsets of the dirty ones in the same order.
func (c *Cache) Order() (resident, dirty []int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := c.head; i != noSlot; i = c.slots[i].next {
		p := &c.slots[i]
		resident = append(resident, p.off)
		if p.dirty {
			dirty = append(dirty, p.off)
		}
	}
	return resident, dirty
}

// SetCapacity sets the cache's capacity in pages. Call it before the first
// request: it does not evict.
func (c *Cache) SetCapacity(pages int) {
	c.mu.Lock()
	c.capacity = pages
	c.mu.Unlock()
}
