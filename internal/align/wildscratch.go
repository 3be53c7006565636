package align

// PairwiseWildScratch is Pairwise against a reference with wildcard
// positions: ref[i] with wild[i] set matches any document token at zero
// cost (a template's slot). The DP table comes from the caller-owned
// Scratch and no edit script is materialized: the returned Alignment has
// nil Edits, and its Matches / Subs / Inss / Dels follow the same scores
// and match > sub > del > ins tie-break as the allocating reference
// aligner the package tests pin it to. The streaming detector runs one
// of these per surviving template per probe; a Scratch is owned by
// exactly one goroutine at a time (the batched serve path threads one per
// worker).
func PairwiseWildScratch(ref []int, wild []bool, doc []int, sc *Scratch) Alignment {
	n, m := len(ref), len(doc)
	width := m + 1
	dp := sc.table((n + 1) * width)
	for j := 0; j <= m; j++ {
		dp[j] = int32(j)
	}
	matches := func(i, j int) bool {
		return wild[i-1] || ref[i-1] == doc[j-1]
	}
	for i := 1; i <= n; i++ {
		row, prev := dp[i*width:(i+1)*width], dp[(i-1)*width:i*width]
		row[0] = int32(i)
		for j := 1; j <= m; j++ {
			diag := prev[j-1]
			if !matches(i, j) {
				diag++
			}
			best := diag
			if v := prev[j] + 1; v < best { // delete ref[i-1]
				best = v
			}
			if v := row[j-1] + 1; v < best { // insert doc[j-1]
				best = v
			}
			row[j] = best
		}
	}
	var a Alignment
	i, j := n, m
	for i > 0 || j > 0 {
		cur := dp[i*width+j]
		switch {
		case i > 0 && j > 0 && matches(i, j) && cur == dp[(i-1)*width+j-1]:
			a.Matches++
			i, j = i-1, j-1
		case i > 0 && j > 0 && cur == dp[(i-1)*width+j-1]+1 && !matches(i, j):
			a.Subs++
			i, j = i-1, j-1
		case i > 0 && cur == dp[(i-1)*width+j]+1:
			a.Dels++
			i--
		default: // j > 0
			a.Inss++
			j--
		}
	}
	return a
}
