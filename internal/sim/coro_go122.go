//go:build !go1.23

package sim

func (p *Proc) start() { var _ int = "internal/sim requires Go 1.23" }
