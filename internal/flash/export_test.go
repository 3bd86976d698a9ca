package flash

// MaxErase returns the highest per-block erase count (wear peak).
func (d *Device) MaxErase() int {
	m := 0
	for i := range d.blocks {
		m = max(m, d.blocks[i].eraseCnt)
	}
	return m
}
