package serve

import (
	"bytes"
	"context"
	"net/http"

	"eventhit/internal/strategy"
)

// Stats fetches the server counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	err := c.get(ctx, "/v1/stats", &out)
	return out, err
}

// PushModel uploads a new bundle to POST /v1/model, atomically hot-swapping
// the served model+calibration. The server validates the bundle against its
// frozen geometry and rejects a misfit at swap time.
func (c *Client) PushModel(ctx context.Context, b *strategy.Bundle) (ModelResponse, error) {
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		return ModelResponse{}, err
	}
	var out ModelResponse
	err := c.do(ctx, http.MethodPost, "/v1/model", "application/octet-stream", &buf, &out)
	return out, err
}

// Ready reports whether the server is ready to take traffic (not
// draining, its ReadyProbe passing). A transport error counts as not
// ready — exactly how a front tier must treat an unreachable worker.
func (c *Client) Ready(ctx context.Context) bool {
	return c.do(ctx, http.MethodGet, "/readyz", "", nil, nil) == nil
}
