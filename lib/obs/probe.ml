let kernel ?(args = []) ~hist name f =
  Trace.with_span ~args name (fun () -> Metrics.time hist f)
