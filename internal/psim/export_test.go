package psim

// CrossRecordsOut reports, region by region, how many cross-frame
// deliveries are scheduled and have not fired yet.
func (pw *World) CrossRecordsOut() []int {
	out := make([]int, len(pw.regions))
	for i, r := range pw.regions {
		out[i] = r.crossCalls.Out()
	}
	return out
}

// UnfinishedScripts counts the hosts whose scripts have events left.
func (pw *World) UnfinishedScripts() int {
	n := 0
	for _, s := range pw.scripts {
		if s.next < len(s.events) {
			n++
		}
	}
	return n
}
