// Package edf implements a preemptive earliest-deadline-first scheduler
// simulator for a single DVS processor.
//
// EDF is optimal for independent real-time jobs on one processor (Liu &
// Layland), which is why the whole paper family layers DVS speed selection
// on top of it. The simulator executes a concrete job set against a
// piecewise-constant speed profile and reports completion times and
// deadline misses. The repository uses it as an *oracle*: every solution
// produced by the rejection solvers is replayed here to confirm it is
// actually schedulable.
package edf

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"dvsreject/internal/speed"
	"dvsreject/internal/task"
)

// Job is one real-time job instance.
type Job struct {
	TaskID   int
	Release  float64 // arrival time
	Deadline float64 // absolute deadline
	Cycles   float64 // execution requirement in cycles
}

// Validate reports whether the job parameters are sensible.
func (j Job) Validate() error {
	switch {
	case math.IsNaN(j.Release) || j.Release < 0:
		return fmt.Errorf("edf: job of task %d: release = %v, want ≥ 0", j.TaskID, j.Release)
	case math.IsNaN(j.Deadline) || j.Deadline <= j.Release:
		return fmt.Errorf("edf: job of task %d: deadline = %v, want > release %v", j.TaskID, j.Deadline, j.Release)
	case math.IsNaN(j.Cycles) || j.Cycles <= 0:
		return fmt.Errorf("edf: job of task %d: cycles = %v, want > 0", j.TaskID, j.Cycles)
	}
	return nil
}

// JobResult is the outcome of one job in a simulation.
type JobResult struct {
	Job
	Finish float64 // completion time; meaningless when Missed
	Missed bool    // true when the job did not complete by its deadline
}

// Slice is one contiguous stretch of execution of a job.
type Slice struct {
	TaskID     int
	JobIndex   int // index into Result.Jobs
	Start, End float64
}

// Result is the outcome of a simulation run.
type Result struct {
	Jobs   []JobResult
	Misses int     // number of missed deadlines
	Slices []Slice // execution trace in time order
}

// Feasible reports whether no job missed its deadline.
func (r Result) Feasible() bool { return r.Misses == 0 }

// missSlack and relSlack set the replay's float tolerance when comparing
// completion times against deadlines: Simulate allows
// max(missSlack, relSlack·largest deadline), because an absolute 1e-9 is
// below float resolution on long frames (one ulp at 2²⁴ is ~3.7e-9).
const (
	missSlack = 1e-9
	relSlack  = 1e-12
)

// active is the EDF ready queue: a min-heap on absolute deadline.
type active []*running

type running struct {
	job       Job
	remaining float64
	index     int // position in the job list, for stable results
}

func (a active) Len() int { return len(a) }
func (a active) Less(i, j int) bool {
	if a[i].job.Deadline != a[j].job.Deadline {
		return a[i].job.Deadline < a[j].job.Deadline
	}
	return a[i].index < a[j].index // deterministic tie-break
}
func (a active) Swap(i, j int) { a[i], a[j] = a[j], a[i] }
func (a *active) Push(x any)   { *a = append(*a, x.(*running)) }
func (a *active) Pop() any {
	old := *a
	n := len(old)
	x := old[n-1]
	*a = old[:n-1]
	return x
}

// Simulate runs preemptive EDF over the jobs with the processor following
// the speed profile. Time outside the profile's segments has speed 0. The
// simulation ends when every job has completed or missed its deadline.
// Results are returned in the order the jobs were supplied. Times are
// compared with the frame-relative slack described at missSlack.
func Simulate(jobs []Job, profile speed.Profile) (Result, error) {
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return Result{}, err
		}
	}
	if err := profile.Validate(); err != nil {
		return Result{}, err
	}

	results := make([]JobResult, len(jobs))
	slack := missSlack
	for i, j := range jobs {
		results[i] = JobResult{Job: j}
		slack = math.Max(slack, relSlack*j.Deadline)
	}
	var slices []Slice
	record := func(idx int, from, to float64) {
		if to <= from {
			return
		}
		// Merge with the previous slice when the same job continues.
		if n := len(slices); n > 0 && slices[n-1].JobIndex == idx && slices[n-1].End >= from-slack {
			slices[n-1].End = to
			return
		}
		slices = append(slices, Slice{TaskID: jobs[idx].TaskID, JobIndex: idx, Start: from, End: to})
	}

	// Pending jobs sorted by release time.
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Release < jobs[order[b]].Release
	})

	var ready active
	next := 0 // index into order of the next unreleased job
	t := 0.0
	if len(order) > 0 {
		t = jobs[order[0]].Release
	}

	for next < len(order) || ready.Len() > 0 {
		// Release everything that has arrived by t.
		for next < len(order) && jobs[order[next]].Release <= t+slack {
			i := order[next]
			heap.Push(&ready, &running{job: jobs[i], remaining: jobs[i].Cycles, index: i})
			next++
		}
		if ready.Len() == 0 {
			// Idle until the next release.
			t = jobs[order[next]].Release
			continue
		}

		cur := ready[0]

		// The next scheduling event: a release, the job's deadline, or a
		// profile speed change.
		horizon := cur.job.Deadline
		if next < len(order) && jobs[order[next]].Release < horizon {
			horizon = jobs[order[next]].Release
		}
		if b, ok := nextBoundary(profile, t); ok && b < horizon {
			horizon = b
		}
		if horizon <= t {
			horizon = t + slack // defensive: always make progress
		}

		// Execute the highest-priority job until the horizon or until it
		// completes within the current constant-speed stretch.
		s := profile.SpeedAt(t)
		var finish float64
		if s > 0 {
			finish = t + cur.remaining/s
		} else {
			finish = math.Inf(1)
		}
		switch {
		case finish <= horizon+slack && finish <= cur.job.Deadline+slack:
			// Job completes.
			heap.Pop(&ready)
			end := math.Min(finish, horizon)
			results[cur.index].Finish = end
			record(cur.index, t, end)
			t = end
		case horizon >= cur.job.Deadline-slack && finish > cur.job.Deadline+slack:
			// The deadline arrives first: the job misses.
			heap.Pop(&ready)
			results[cur.index].Missed = true
			if s > 0 {
				record(cur.index, t, cur.job.Deadline)
			}
			t = cur.job.Deadline
		default:
			// Run until the event, then re-evaluate.
			cur.remaining -= s * (horizon - t)
			if cur.remaining < 0 {
				cur.remaining = 0
			}
			if s > 0 {
				record(cur.index, t, horizon)
			}
			t = horizon
		}
	}

	r := Result{Jobs: results, Slices: slices}
	for _, jr := range results {
		if jr.Missed {
			r.Misses++
		}
	}
	return r, nil
}

// nextBoundary returns the earliest profile segment start or end strictly
// after t. The comparison is exact (no slack): skipping a boundary that
// lies within float tolerance of t would price the upcoming stretch at the
// wrong speed and can turn an exactly-fitting schedule into a spurious
// miss.
func nextBoundary(pr speed.Profile, t float64) (float64, bool) {
	best := math.Inf(1)
	for _, seg := range pr {
		if seg.Start > t && seg.Start < best {
			best = seg.Start
		}
		if seg.End > t && seg.End < best {
			best = seg.End
		}
	}
	return best, !math.IsInf(best, 1)
}

// FrameJobs converts a frame-based task set restricted to the accepted IDs
// into one job per accepted task (release 0, deadline D). A nil accepted
// slice means "all tasks".
func FrameJobs(s task.Set, accepted []int) []Job {
	want := map[int]bool{}
	for _, id := range accepted {
		want[id] = true
	}
	var jobs []Job
	for _, t := range s.Tasks {
		if accepted != nil && !want[t.ID] {
			continue
		}
		jobs = append(jobs, Job{
			TaskID:   t.ID,
			Release:  0,
			Deadline: s.Deadline,
			Cycles:   float64(t.Cycles),
		})
	}
	return jobs
}

// PeriodicJobs releases all jobs of the periodic tasks within [0, horizon).
// Jobs whose deadline falls beyond the horizon are not released (the
// hyper-period is the natural horizon, where every period divides evenly).
func PeriodicJobs(ps task.PeriodicSet, horizon int64) []Job {
	var jobs []Job
	for _, t := range ps.Tasks {
		for r := int64(0); r+t.Period <= horizon; r += t.Period {
			jobs = append(jobs, Job{
				TaskID:   t.ID,
				Release:  float64(r),
				Deadline: float64(r + t.Period),
				Cycles:   float64(t.Cycles),
			})
		}
	}
	return jobs
}
