// The benchmark is its own module so that the root module's build and
// tests do not depend on it; the replace points at the checkout it sits in.
module memverify/bench

go 1.22

require memverify v0.0.0

replace memverify => ../
