package dedup

// RefHistogram returns the live reference-count distribution bucketed
// as {1, 2, 3, >3} — the bucketing of Figure 6.
func (x *Index) RefHistogram() [4]int {
	var h [4]int
	for i := range x.entries {
		switch r := x.entries[i].ref; {
		case r <= 0:
		case r <= 3:
			h[r-1]++
		default:
			h[3]++
		}
	}
	return h
}
