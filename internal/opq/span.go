package opq

// Span is one contiguous window of an instance's tasks: Len tasks
// starting at task index Base.
type Span struct{ Base, Len int }

// CutSpans cuts n tasks into at most parts block-aligned spans: every span
// but the last is an exact multiple of blockSize (the queue's optimal
// block size LCM₁) holding at least minBlocks full blocks, surplus blocks
// go one each to the first spans, and the last span also carries the
// sub-block remainder. Solving the spans independently and concatenating
// the plans in span order therefore mirrors the unsplit Algorithm-3
// control flow exactly — the alignment rule behind the cluster fan-out.
// blockSize and minBlocks must be positive; fewer than two useful parts yield the single span {0, n}.
func CutSpans(n, blockSize, parts, minBlocks int) []Span {
	fullBlocks := n / blockSize
	if maxUseful := fullBlocks / minBlocks; parts > maxUseful {
		parts = maxUseful
	}
	if parts <= 1 {
		return []Span{{0, n}}
	}
	blocksPer := fullBlocks / parts
	extra := fullBlocks % parts
	spans := make([]Span, 0, parts)
	pos := 0
	for i := 0; i < parts; i++ {
		size := blocksPer * blockSize
		if i < extra {
			size += blockSize
		}
		end := pos + size
		if i == parts-1 {
			end = n // remainder rides with the final span
		}
		spans = append(spans, Span{Base: pos, Len: end - pos})
		pos = end
	}
	return spans
}
