let () =
  (* Let `make verify` replay the whole suite with a live sink
     (SIDER_TRACE=stderr / null) — determinism tests must still pass. *)
  Sider_obs.Obs.install_from_env ();
  Alcotest.run "sider"
    [
      ("vec", Test_vec.suite);
      ("mat", Test_mat.suite);
      ("decomp", Test_decomp.suite);
      ("rand", Test_rand.suite);
      ("stats", Test_stats.suite);
      ("data", Test_data.suite);
      ("maxent", Test_maxent.suite);
      ("projection", Test_projection.suite);
      ("core", Test_core.suite);
      ("viz", Test_viz.suite);
      ("integration", Test_integration.suite);
      ("related", Test_related.suite);
      ("persist", Test_persist.suite);
      ("robust", Test_robust.suite);
      ("properties", Test_props.suite);
      ("obs", Test_obs.suite);
      ("serve", Test_serve.suite);
      ("service", Test_service.suite);
      ("golden", Test_golden.suite);
    ]
