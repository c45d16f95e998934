let () =
  Alcotest.run "reactdb"
    [
      Suite_util.suite;
      Suite_btree.suite;
      Suite_storage.suite;
      Suite_occ.suite;
      Suite_query.suite;
      Suite_secondary.suite;
      Suite_sim.suite;
      Suite_costmodel.suite;
      Suite_histories.suite;
      Suite_reactdb.suite;
      Suite_workloads.suite;
      Suite_wal.suite;
      Suite_faultsim.suite;
      Suite_sql.suite;
      Suite_random.suite;
      Suite_chaos.suite;
      Suite_mailbox.suite;
      Suite_runtime.suite;
      Suite_obs.suite;
      Suite_snapshot.suite;
      Suite_pins.suite;
      Suite_migration.suite;
      Suite_misc.suite;
      Suite_replica.suite;
    ]
