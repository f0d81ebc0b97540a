package service

// FakeClock is virtual time for the service_test package (see fakeClock).
type FakeClock = fakeClock

// UseFakeClock puts c on a fresh virtual clock and returns it: the
// client's retry backoff then advances that clock instead of sleeping.
func UseFakeClock(c *Client) *FakeClock {
	f := newFakeClock()
	c.clk = f
	return f
}
