package align

// PairwiseWildBanded is PairwiseWildScratch restricted to a Ukkonen-style
// diagonal band, for callers that already know the unit-cost distance (the
// serving path's bit-parallel WildDistanceMasked runs before every exact
// alignment of a short template). As in PairwiseWildScratch, a nil wild
// means no slots. With band half-width h = dist the optimal path fits
// inside the band — every intermediate diagonal deviation is bounded by
// the insertions/deletions spent so far — so the O(n·m) table shrinks to
// O(n·dist) while the result stays op-for-op identical to the full DP.
//
// dist seeds the band and is typically the exact distance; any
// non-negative value is safe. The band is widened and the attempt rerun
// whenever the equality certificate below fails (only possible when dist
// underestimates the true distance), and retries reports how many
// widenings occurred — zero whenever dist was exact. Attempts whose band
// would be at least as wide as the full table (2h ≥ m) delegate to the
// full PairwiseWildScratch instead.
//
// Equality argument (FuzzWildBanded pins it op-for-op against the full
// DP). Write B for the banded table (minimum over paths confined to
// |j−i| ≤ h) and F for the full table; δ = j−i. Two facts:
//
//  1. A path that leaves the band before reaching (i, j) spends ≥ h+1
//     indels reaching deviation ±(h+1) and ≥ h+1−|δ| returning, so it
//     costs ≥ 2h+2−|δ| — hence B(i,j) ≤ 2h+1−|δ| forces B(i,j) = F(i,j).
//  2. On the traceback path from (n,m), cur = B(n,m) − cost(path so far)
//     and |δ| ≤ |m−n| + that same cost, so cur + |δ| ≤ B(n,m) + |m−n|.
//
// The accept check B(n,m) + |m−n| ≤ 2h therefore guarantees (a) the
// corner is exact (fact 1 at δ = m−n), and (b) at every traceback cell
// cur + |δ| ≤ 2h. For each neighbor the full traceback consults (diag at
// the same δ, up at δ+1), either its banded value equals F and the
// equality tests agree trivially, or its F is achieved by a band-exiting
// path, so both its F and its banded value are ≥ 2h+2−|δ|−1 > cur + 1 ≥
// every value the tests compare against — the tests fail on both sides.
// Out-of-band neighbors fail the same way (F ≥ h+1 ≥ cur+1 when δ = h).
// Every decision of the match > sub > del > ins switch is thus identical
// to the full DP's, and so are the returned operation counts.
func PairwiseWildBanded(ref []int, wild []bool, doc []int, dist int, sc *Scratch) (a Alignment, retries int) {
	n, m := len(ref), len(doc)
	h := dist
	if d := m - n; d > h {
		h = d
	}
	if d := n - m; d > h {
		h = d
	}
	for {
		if 2*h >= m {
			// The band is at least as wide as the full table (and always
			// is once h reaches max(n, m)): run the reference DP directly.
			return PairwiseWildScratch(ref, wild, doc, sc), retries
		}
		if a, ok := bandedWildAttempt(ref, wild, doc, h, sc); ok {
			return a, retries
		}
		if h == 0 {
			h = 1
		} else {
			h *= 2
		}
		retries++
	}
}

// bandedWildAttempt runs one banded fill + traceback at half-width h.
// Rows store the band compactly: row i covers j ∈ [max(0, i−h),
// min(m, i+h)] at column j−i+h, width 2h+1. Every in-band cell's
// recurrence neighbors are themselves in band and filled (diag shares the
// cell's column, up/left are gated by the column bounds), so no sentinel
// values are needed. ok is the equality certificate described on
// PairwiseWildBanded; on false the caller widens and retries.
func bandedWildAttempt(ref []int, wild []bool, doc []int, h int, sc *Scratch) (a Alignment, ok bool) {
	n, m := len(ref), len(doc)
	w := 2*h + 1
	dp := sc.table((n + 1) * w)
	for j := 0; j <= m && j <= h; j++ {
		dp[j+h] = int32(j)
	}
	for i := 1; i <= n; i++ {
		row, prev := dp[i*w:(i+1)*w], dp[(i-1)*w:i*w]
		jlo := i - h
		if jlo <= 0 {
			row[h-i] = int32(i) // column 0 is all deletions
			jlo = 1
		}
		jhi := i + h
		if jhi > m {
			jhi = m
		}
		// sub is what a mismatch on the diagonal costs: nothing in a slot
		// row, and a nil wild (no slots) is tested once per row, as in fill.
		ri, sub := ref[i-1], int32(1)
		if wild != nil && wild[i-1] {
			sub = 0
		}
		for j := jlo; j <= jhi; j++ {
			c := j - i + h
			diag := prev[c]
			if ri != doc[j-1] {
				diag += sub
			}
			best := diag
			if c+1 < w {
				if v := prev[c+1] + 1; v < best { // delete ref[i-1]
					best = v
				}
			}
			if c > 0 {
				if v := row[c-1] + 1; v < best { // insert doc[j-1]
					best = v
				}
			}
			row[c] = best
		}
	}
	dm := m - n
	if dm < 0 {
		dm = -dm
	}
	if int(dp[n*w+(m-n+h)])+dm > 2*h {
		return Alignment{}, false
	}
	i, j := n, m
	for i > 0 || j > 0 {
		c := j - i + h
		cur := dp[i*w+c]
		match := i > 0 && j > 0 && (ref[i-1] == doc[j-1] || wild != nil && wild[i-1])
		switch {
		case match && cur == dp[(i-1)*w+c]:
			a.Matches++
			i, j = i-1, j-1
		case i > 0 && j > 0 && !match && cur == dp[(i-1)*w+c]+1:
			a.Subs++
			i, j = i-1, j-1
		case i > 0 && c+1 < w && cur == dp[(i-1)*w+c+1]+1:
			a.Dels++
			i--
		default: // j > 0, and the insert target (i, j-1) is in band
			if c == 0 {
				// Unreachable when the accept check holds (the cell's value
				// must then come from an in-band source, and one of the
				// cases above would have fired); kept as a defensive widen.
				return Alignment{}, false
			}
			a.Inss++
			j--
		}
	}
	return a, true
}
