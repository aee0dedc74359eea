package countq

// CheckParamsRead exports checkParamsRead to the external conformance
// suite, which holds the real backends' entries to their declarations.
var CheckParamsRead = checkParamsRead
