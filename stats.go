package cagc

// EventsOf tallies the discrete operations the substrate processed
// during the measured phase of a run — the numerator of every
// events/sec throughput figure (the benchmark ledger, batch aggregates,
// the serving layer's /metrics).
func EventsOf(r *Result) uint64 {
	return r.Requests +
		r.FTL.UserReadPages + r.FTL.UserWritePages + r.FTL.UserTrimPages +
		r.FTL.GCReads + r.FTL.TotalPrograms() + r.FTL.BlocksErased +
		r.FTL.HashOps
}
