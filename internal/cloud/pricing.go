package cloud

import (
	"fmt"
	"sync"
)

// Budget guards a Service with a spending cap: Charge returns an error
// once a request would push cumulative spend past the cap, letting an
// operator bound worst-case monthly cost regardless of marshalling
// quality. It meters integer frames and prices the running total with one
// multiply, as fleet.Arbiter does, so a charge that brings spend to
// exactly the cap fits however it was split (summing per-charge dollars
// would refuse it: 0.1+0.1+0.1 > 0.3). It is safe for concurrent use.
type Budget struct {
	mu          sync.Mutex
	capUSD      float64
	perFrameUSD float64
	frames      int64
}

// NewBudget returns a budget of capUSD dollars over frames priced at
// perFrameUSD. capUSD must be positive, perFrameUSD non-negative.
func NewBudget(capUSD, perFrameUSD float64) (*Budget, error) {
	if capUSD <= 0 {
		return nil, fmt.Errorf("cloud: budget cap %v must be positive", capUSD)
	}
	if perFrameUSD < 0 {
		return nil, fmt.Errorf("cloud: negative frame price %v", perFrameUSD)
	}
	return &Budget{capUSD: capUSD, perFrameUSD: perFrameUSD}, nil
}

// ErrBudgetExhausted is returned (wrapped) when a charge would exceed the
// cap.
var ErrBudgetExhausted = fmt.Errorf("cloud: budget exhausted")

// Charge records frames of spend, failing without recording when it would
// exceed the cap.
func (b *Budget) Charge(frames int) error {
	if frames < 0 {
		return fmt.Errorf("cloud: negative charge of %d frames", frames)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if float64(b.frames+int64(frames))*b.perFrameUSD > b.capUSD {
		return fmt.Errorf("%w: %.2f spent of %.2f cap, charge of %d frames refused",
			ErrBudgetExhausted, float64(b.frames)*b.perFrameUSD, b.capUSD, frames)
	}
	b.frames += int64(frames)
	return nil
}
