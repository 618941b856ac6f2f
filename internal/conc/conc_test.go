package conc

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachResultsInOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 16} {
		got, err := ForEach(10, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 10 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Errorf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	const n = 100
	var counts [n]atomic.Int32
	if _, err := ForEach(n, 8, func(i int) (struct{}, error) {
		counts[i].Add(1)
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("index %d ran %d times", i, c)
		}
	}
}

func TestForEachFirstErrorByIndexWins(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := ForEach(20, workers, func(i int) (int, error) {
			if i == 3 || i == 17 {
				return 0, fmt.Errorf("boom %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "boom 3" {
			t.Errorf("workers=%d: err = %v, want boom 3", workers, err)
		}
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	got, err := ForEach(0, 4, func(i int) (int, error) { return i, nil })
	if err != nil || len(got) != 0 {
		t.Errorf("n=0: got %v, %v", got, err)
	}
}

// TestForEachPanicReachesCaller: panics at two indices are recovered on
// the workers, every index is still attempted, and the caller's goroutine
// re-panics with the lower index's value and the stack it was raised on.
func TestForEachPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 20
		var counts [n]atomic.Int32
		got := func() (p any) {
			defer func() { p = recover() }()
			ForEach(n, workers, func(i int) (int, error) {
				counts[i].Add(1)
				if i == 5 || i == 13 {
					panicAt(i)
				}
				return i, nil
			})
			return nil
		}()
		p, ok := got.(*Panic)
		if !ok {
			t.Fatalf("workers=%d: recovered %#v, want *Panic", workers, got)
		}
		if p.Index != 5 || p.Value != "boom 5" {
			t.Errorf("workers=%d: panic at index %d with %v, want index 5 with boom 5", workers, p.Index, p.Value)
		}
		if !strings.Contains(string(p.Stack), "conc.panicAt") {
			t.Errorf("workers=%d: stack does not show the panicking frame:\n%s", workers, p.Stack)
		}
		if want := "conc: index 5 panicked: boom 5"; p.Error() != want {
			t.Errorf("workers=%d: Error() = %q, want %q", workers, p.Error(), want)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("workers=%d: index %d ran %d times, want 1", workers, i, c)
			}
		}
	}
}

func panicAt(i int) { panic(fmt.Sprintf("boom %d", i)) }
