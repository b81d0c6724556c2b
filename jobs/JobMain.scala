package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.{Scale, Tables}

/** spark-submit entry point for the paper's tables:
  *
  *   spark-submit --class repro.jobs.JobMain repro.jar
  *
  * Trains every method on all four cities at bench scale once, then prints
  * Tables II–V; TSVs land under bench/results/.
  */
object JobMain {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("trmma-repro")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val evs = Tables.evalAll(spark, Scale.bench, Console.err.println)
      Seq(Tables.tableII(evs), Tables.tableIII(evs), Tables.tableIV(evs), Tables.tableV(evs)).foreach(println)
    } finally spark.stop()
  }
}
