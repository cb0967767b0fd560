package cloud

import (
	"errors"
	"sync"
	"testing"
)

func TestBudgetChargeAndExhaustion(t *testing.T) {
	b, err := NewBudget(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Charge(4); err != nil {
		t.Fatal(err)
	}
	if err := b.Charge(4); err != nil {
		t.Fatal(err)
	}
	if b.Spent() != 8 || b.Remaining() != 2 {
		t.Fatalf("spent=%v remaining=%v", b.Spent(), b.Remaining())
	}
	err = b.Charge(3)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("expected ErrBudgetExhausted, got %v", err)
	}
	// A refused charge must not be recorded.
	if b.Spent() != 8 {
		t.Fatalf("refused charge was recorded: %v", b.Spent())
	}
	// A smaller charge still fits.
	if err := b.Charge(2); err != nil {
		t.Fatal(err)
	}
}

func TestBudgetValidation(t *testing.T) {
	if _, err := NewBudget(0); err == nil {
		t.Fatal("expected error for zero cap")
	}
	b, _ := NewBudget(1)
	if err := b.Charge(-1); err == nil {
		t.Fatal("expected error for negative charge")
	}
}

func TestBudgetConcurrent(t *testing.T) {
	b, _ := NewBudget(1000)
	var wg sync.WaitGroup
	granted := make([]int, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if b.Charge(1) == nil {
					granted[i]++
				}
			}
		}(i)
	}
	wg.Wait()
	total := 0
	for _, g := range granted {
		total += g
	}
	if total != 1000 {
		t.Fatalf("granted %d charges, want exactly 1000", total)
	}
	if b.Remaining() != 0 {
		t.Fatalf("remaining = %v", b.Remaining())
	}
}
