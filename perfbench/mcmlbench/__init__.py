"""MCML paper-artifact benchmark: workloads, pass process, tracing, checks."""
