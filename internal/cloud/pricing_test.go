package cloud

import (
	"errors"
	"sync"
	"testing"
)

// Spent returns the cumulative spend.
func (b *Budget) Spent() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return float64(b.frames) * b.perFrameUSD
}

func TestBudgetChargeAndExhaustion(t *testing.T) {
	b, err := NewBudget(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Charge(4); err != nil {
		t.Fatal(err)
	}
	if err := b.Charge(4); err != nil {
		t.Fatal(err)
	}
	if b.Spent() != 8 {
		t.Fatalf("spent=%v", b.Spent())
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

// TestBudgetFitsExactCap: three 100-frame relays at Rekognition's $0.001
// per frame spend exactly a $0.30 cap. Summing per-charge dollars refuses
// the third (0.1+0.1+0.1 = 0.30000000000000004 > 0.3); pricing the frame
// total with one multiply admits it, and the next frame is refused.
func TestBudgetFitsExactCap(t *testing.T) {
	price := RekognitionPricing().PerFrameUSD
	b, err := NewBudget(0.30, price)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.Charge(100); err != nil {
			t.Fatalf("charge %d of 100 frames: %v", i+1, err)
		}
	}
	if got := b.Spent(); got != 0.30 {
		t.Fatalf("spent = %v, want 0.30", got)
	}
	if err := b.Charge(1); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("a frame past the cap: got %v, want ErrBudgetExhausted", err)
	}
}

func TestBudgetValidation(t *testing.T) {
	if _, err := NewBudget(0, 1); err == nil {
		t.Fatal("expected error for zero cap")
	}
	if _, err := NewBudget(1, -1); err == nil {
		t.Fatal("expected error for a negative frame price")
	}
	b, _ := NewBudget(1, 1)
	if err := b.Charge(-1); err == nil {
		t.Fatal("expected error for negative charge")
	}
}

func TestBudgetConcurrent(t *testing.T) {
	b, _ := NewBudget(1000, 1)
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
	if b.Spent() != 1000 {
		t.Fatalf("spent = %v, want the whole cap", b.Spent())
	}
}
