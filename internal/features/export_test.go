package features

// SideLen returns the number of keys the side map holds.
func (d *Dict) SideLen() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.sideKeys)
}
