package mh

// Run is the module runtime's entry point.
func Run() {}
