package opq

import (
	"reflect"
	"testing"
)

func TestCutSpans(t *testing.T) {
	for _, tc := range []struct {
		name                           string
		n, blockSize, parts, minBlocks int
		want                           []Span
	}{
		{name: "n below one block", n: 6, blockSize: 7, parts: 4, minBlocks: 2, want: []Span{{0, 6}}},
		{name: "one block, floor of two", n: 7, blockSize: 7, parts: 4, minBlocks: 2, want: []Span{{0, 7}}},
		{name: "one part asked", n: 100, blockSize: 7, parts: 1, minBlocks: 2, want: []Span{{0, 100}}},
		{name: "no parts asked", n: 100, blockSize: 7, parts: 0, minBlocks: 1, want: []Span{{0, 100}}},
		// 14 full blocks at a floor of 2 would allow 7 parts; 3 asked.
		// 14 = 3·4 + 2, so the first two spans take the extra blocks and
		// the last also carries the 2-task remainder.
		{name: "extra blocks to the first spans", n: 100, blockSize: 7, parts: 3, minBlocks: 2,
			want: []Span{{0, 35}, {35, 35}, {70, 30}}},
		// 8 full blocks at a floor of 3 cap 4 asked parts to 2.
		{name: "parts capped by fullBlocks/minBlocks", n: 57, blockSize: 7, parts: 4, minBlocks: 3,
			want: []Span{{0, 28}, {28, 29}}},
		{name: "exact multiple", n: 56, blockSize: 7, parts: 4, minBlocks: 2,
			want: []Span{{0, 14}, {14, 14}, {28, 14}, {42, 14}}},
		// 83 full blocks = 5·16 + 3; the last span adds the 4-task remainder.
		{name: "remainder rides the last span", n: 1000, blockSize: 12, parts: 5, minBlocks: 2,
			want: []Span{{0, 204}, {204, 204}, {408, 204}, {612, 192}, {804, 196}}},
		{name: "more parts than blocks", n: 40, blockSize: 12, parts: 16, minBlocks: 1,
			want: []Span{{0, 12}, {12, 12}, {24, 16}}},
	} {
		if got := CutSpans(tc.n, tc.blockSize, tc.parts, tc.minBlocks); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}
