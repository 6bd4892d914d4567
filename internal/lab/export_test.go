package lab

// RetainTerminal exports retainTerminal to the external tests.
const RetainTerminal = retainTerminal
