package cloud

import (
	"fmt"
	"sync"
)

// Budget guards a Service with a spending cap: Charge returns an error
// once a request would push cumulative spend past the cap, letting an
// operator bound worst-case monthly cost regardless of marshalling
// quality. It is safe for concurrent use.
type Budget struct {
	mu    sync.Mutex
	capUS float64
	spent float64
}

// NewBudget returns a budget of capUSD dollars. capUSD must be positive.
func NewBudget(capUSD float64) (*Budget, error) {
	if capUSD <= 0 {
		return nil, fmt.Errorf("cloud: budget cap %v must be positive", capUSD)
	}
	return &Budget{capUS: capUSD}, nil
}

// ErrBudgetExhausted is returned (wrapped) when a charge would exceed the
// cap.
var ErrBudgetExhausted = fmt.Errorf("cloud: budget exhausted")

// Charge records usd of spend, failing without recording when it would
// exceed the cap.
func (b *Budget) Charge(usd float64) error {
	if usd < 0 {
		return fmt.Errorf("cloud: negative charge %v", usd)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.spent+usd > b.capUS {
		return fmt.Errorf("%w: %.2f spent of %.2f cap, charge %.2f refused",
			ErrBudgetExhausted, b.spent, b.capUS, usd)
	}
	b.spent += usd
	return nil
}

// Remaining returns the unspent budget.
func (b *Budget) Remaining() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capUS - b.spent
}

// Spent returns the cumulative spend.
func (b *Budget) Spent() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spent
}
