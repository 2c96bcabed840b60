package trace

// Context is the causal identity a message carries.
type Context struct{ TraceID uint64 }

// Tracer mints and extends contexts.
type Tracer struct{ next uint64 }

// MintTrace opens a new causal chain.
func (t *Tracer) MintTrace() Context { t.next++; return Context{TraceID: t.next} }

// ChildSpan derives a span within parent's chain.
func (t *Tracer) ChildSpan(parent Context) Context { return parent }

// StampBatch extends parent (or mints a root when parent is zero) for n
// sends at once.
func (t *Tracer) StampBatch(parent Context, n int) Context { return parent }
