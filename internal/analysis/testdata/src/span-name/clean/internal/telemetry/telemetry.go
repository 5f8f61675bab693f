// Package telemetry mirrors the real trace context's span-minting
// surface so the receiver-type matching in the span-name check is
// exercised.
package telemetry

const (
	SpanDecide = "mpcdvfs_decide"
	SpanSearch = "mpcdvfs_search"
)

type Context struct{}
type Span struct{}

func (c *Context) StartRoot(name string, index int) Span { return Span{} }
func (c *Context) Start(name string) Span                { return Span{} }
func (s Span) End()                                      {}
