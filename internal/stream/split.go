package stream

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// SplitPlan is the inverse of the MergePlans/OffsetTasks bookkeeping the
// serving layer uses to batch several callers into one block-aligned solve:
// given a merged plan over the concatenated task-id space of len(sizes)
// callers — caller i owns the contiguous global ids
// [sizes[0]+…+sizes[i-1], sizes[0]+…+sizes[i]) — it partitions the runs
// back into one plan per caller, rebased to each caller's local id space
// 0..sizes[i]-1, without expanding a single use.
//
// Every run must fall entirely inside one caller's range, which holds for
// any plan merged caller by caller (core.MergePlans never joins runs
// across its inputs; core.PlanFromUses over one flat list of all callers'
// uses may, and such a plan does not split); a run that spans two callers (or addresses an id outside the concatenated space) is
// cross-request task leakage and fails the whole split — the batcher keeps
// each caller's tasks in caller-aligned blocks precisely so this never
// happens, and the error is the structural guarantee of that invariant.
// Cost splits exactly: because runs partition without overlap, the per-
// caller costs sum to the merged plan's cost.
//
// SplitPlan takes ownership of merged: the arena is rebased in place and
// reused by the returned plans, so the merged plan must not be read or
// reused after the call. Callers that need the merged plan intact should
// pass a deep copy (core.MergePlans(merged) makes one). Every output plan
// gets an arena covering only its own windows — a disjoint subslice of the
// merged arena when the owner's runs are contiguous (the shape
// core.MergePlans produces; zero copy), a fresh copy otherwise — so
// mutating one output (OffsetTasks) can never corrupt a sibling.
func SplitPlan(merged *core.Plan, sizes []int) ([]*core.Plan, error) {
	if merged == nil {
		return nil, fmt.Errorf("stream: split of a nil plan")
	}
	offsets, total, err := splitOffsets(sizes)
	if err != nil {
		return nil, err
	}
	pr := merged.Runs()
	type ownerAcc struct {
		runs []core.BlockRun
		// minOff/nextOff track the owner's windows; contiguous stays true
		// while they form one ascending gap-free region of the arena.
		minOff, nextOff, total int
		contiguous             bool
	}
	parts := make([]ownerAcc, len(sizes))
	for i := range parts {
		parts[i].contiguous = true
	}
	owner := 0
	for ri := range pr.Runs {
		r := &pr.Runs[ri]
		if r.Len == 0 {
			return nil, fmt.Errorf("stream: run %d has no tasks to attribute an owner by", ri)
		}
		if r.Off < 0 || r.Off+r.Len > len(pr.Arena) {
			return nil, fmt.Errorf("stream: run %d window [%d,%d) outside the arena", ri, r.Off, r.Off+r.Len)
		}
		window := pr.Arena[r.Off : r.Off+r.Len]
		first := window[0]
		if first < 0 || first >= total {
			return nil, fmt.Errorf("stream: run %d task %d outside the merged space [0,%d)", ri, first, total)
		}
		// Owner lookup keeps a cursor: merged plans built caller-by-caller
		// visit owners in non-decreasing order, making the common case O(1)
		// per run; runs in arbitrary order fall back to binary search.
		for first >= offsets[owner+1] {
			owner++
		}
		if first < offsets[owner] {
			owner = sort.Search(len(sizes), func(i int) bool { return offsets[i+1] > first })
		}
		lo, hi := offsets[owner], offsets[owner+1]
		for wi, t := range window {
			if t < lo || t >= hi {
				return nil, fmt.Errorf("stream: run %d leaks across callers: task %d outside owner %d's range [%d,%d)", ri, t, owner, lo, hi)
			}
			window[wi] = t - lo // rebase in place; we own the storage
		}
		acc := &parts[owner]
		if len(acc.runs) == 0 {
			acc.minOff, acc.nextOff = r.Off, r.Off
		}
		if r.Off != acc.nextOff {
			acc.contiguous = false
		}
		acc.nextOff = r.Off + r.Len
		acc.total += r.Len
		acc.runs = append(acc.runs, *r)
	}

	out := make([]*core.Plan, len(sizes))
	for i := range parts {
		acc := &parts[i]
		part := &core.PlanRuns{Runs: acc.runs}
		switch {
		case len(acc.runs) == 0:
			// No uses for this caller.
		case acc.contiguous:
			part.Arena = pr.Arena[acc.minOff : acc.minOff+acc.total]
			for ri := range part.Runs {
				part.Runs[ri].Off -= acc.minOff
			}
		default:
			// Scattered windows: copy them into an owner-private arena.
			arena := make([]int, 0, acc.total)
			for ri := range part.Runs {
				r := &part.Runs[ri]
				off := len(arena)
				arena = append(arena, pr.Arena[r.Off:r.Off+r.Len]...)
				r.Off = off
			}
			part.Arena = arena
		}
		out[i] = core.NewRunPlan(part)
	}
	return out, nil
}

// splitOffsets validates the caller sizes and returns the prefix-sum
// offsets (offsets[i] is caller i's first global id) and the total.
func splitOffsets(sizes []int) ([]int, int, error) {
	if len(sizes) == 0 {
		return nil, 0, fmt.Errorf("stream: split needs at least one caller size")
	}
	offsets := make([]int, len(sizes)+1)
	for i, n := range sizes {
		if n < 0 {
			return nil, 0, fmt.Errorf("stream: negative caller size %d at index %d", n, i)
		}
		offsets[i+1] = offsets[i] + n
	}
	return offsets, offsets[len(sizes)], nil
}
