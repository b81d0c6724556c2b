package perfbench

/** One benchmark workload. Every workload reports every end-to-end metric on
  * its own inputs; the workloads differ in the city they draw trajectories
  * from and in how much training they time.
  *
  * @param trainPerSecond timed training samples per measured second
  */
final case class Workload(name: String, city: String, trainPerSecond: Double) {
  import Workload._

  /** Trajectories every inference method is timed on. The measured work is
    * fixed by `--seconds`, so that a run measures about that long on the
    * machine the rates were set on, and a faster program does the same work
    * in less time.
    */
  def nTimed(seconds: Double): Int = math.max(20, math.round(seconds * TimedPerSecond).toInt)

  /** Timed training samples of each model. */
  def trainSamples(seconds: Double): Int = math.max(NTrain, math.round(seconds * trainPerSecond).toInt)
}

object Workload {

  /** Trajectories the models are trained on during set-up (also the
    * training-throughput input).
    */
  val NTrain = 80
  /** Warm-up trajectories, disjoint from the timed set. */
  val NWarm = 24
  /** Timed trajectories per measured second. */
  val TimedPerSecond = 32.0
  /** Epochs trained in set-up. */
  val EpMma = 4
  val EpTrmma = 3
  val EpMTrajRec = 2

  val all: Seq[Workload] = Seq(
    // Short gaps, many points: time goes to the nn forward passes.
    Workload("xa-infer", "XA", trainPerSecond = 16),
    // Long gaps over a large network: time goes to geo (bounded Dijkstra,
    // A*, planner search).
    Workload("bj-infer", "BJ", trainPerSecond = 16),
    // The tape path: the same inference on XA plus 1.5 times the training.
    Workload("xa-train", "XA", trainPerSecond = 24),
  )

  def apply(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload $name (known: ${all.map(_.name).mkString(", ")})"))
}
