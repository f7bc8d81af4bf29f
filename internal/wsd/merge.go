package wsd

// MergeAlt returns the member alternative selected for the k-th merged
// component (in ascending id order) by the combined alternative m, for
// members with the given arities: the mixed-radix digit of m with index
// 0 fastest-varying — the same enumeration order Expand uses. It is the
// layout of a bounded component merge: the factorized engine collapses
// coupled components into one whose alternative m combines the members'
// MergeAlt choices, without materializing the merged component.
func MergeAlt(arities []int, k, m int) int {
	stride := 1
	for i := 0; i < k; i++ {
		stride *= arities[i]
	}
	return (m / stride) % arities[k]
}
